package storage

import (
	"fmt"
	"math/bits"
	"slices"

	"ahead/internal/an"
	"ahead/internal/bitpack"
	"ahead/internal/coding/residue"
)

// Column is a fixed-width dense array of values, the DSM storage unit of a
// column store (Section 4). A column is either unprotected (plain integer
// values, byte-compressed to the narrowest native width) or hardened (AN
// code words, stored in the narrowest native width that holds |D| + |A|
// bits). String columns are dictionary-encoded: the array holds integer
// dictionary codes and the column carries the dictionary.
type Column struct {
	name  string
	kind  Kind
	width int // physical bytes per value: 1, 2, 4 or 8

	u8  []uint8
	u16 []uint16
	u32 []uint32
	u64 []uint64

	code *an.Code    // non-nil iff the column stores code words
	dict *Dict       // non-nil iff the column is dictionary-encoded
	heap *StringHeap // non-nil iff the column is heap-backed (StrHeap)

	// base is a hardened column's frame of reference: the array holds
	// the code word of v-base for every value v, 0 for a column hardened
	// as its values stand. lifted is the code base-0 words of the column
	// verify under (Lift), nil without a base.
	base   uint64
	lifted *an.Code

	// packed is the lane-aligned mirror of a narrow hardened column (see
	// Packed): same code words, bit-packed so the SWAR kernels can scan
	// several per 64-bit word. The wide array stays authoritative - Get,
	// Bytes and the fallback kernels never consult the mirror - and every
	// mutation path (grow/setU64) keeps the two in lockstep.
	packed *bitpack.Lanes

	// resCode/resCheck carry the residue sidecar of a residue-hardened
	// column (exclusive with code): values stay plain and run the
	// unprotected kernels, while resCheck[i] holds Get(i) mod m for
	// at-rest verification via ResidueCheckAll - the adaptive
	// controller's cheap tier for cold columns. setU64 keeps the sidecar
	// in lockstep; Corrupt deliberately does not (see storeRaw).
	resCode  *residue.Code
	resCheck []uint16
}

// MaxPackedBits is the widest code a column maintains a packed mirror
// for. At W bits per lane the SWAR kernels fit 64/(W+1) lanes per word;
// beyond 20 bits that drops under three and the packed scan stops
// out-running the wide one, so the column falls back to the wide path.
const MaxPackedBits = 20

// NewColumn creates an empty unprotected column of the given kind. Str
// columns must be created with NewStrColumn.
func NewColumn(name string, kind Kind) (*Column, error) {
	if kind.IsHardened() {
		return nil, fmt.Errorf("storage: hardened columns are created by Harden, not NewColumn")
	}
	if kind == Str || kind == StrHeap {
		return nil, fmt.Errorf("storage: string columns are created by NewStrColumn or NewHeapStrColumn")
	}
	return &Column{name: name, kind: kind, width: kind.NaturalWidth()}, nil
}

// NewStrColumn dictionary-encodes the given string values: it builds the
// sorted dictionary and stores each value's code in the narrowest integer
// width. The column kind is Str; its integer codes behave like any other
// unprotected integer column for filtering, joining and hardening.
func NewStrColumn(name string, values []string) *Column {
	dict := NewDict(values)
	width, _ := widthForBits(dict.Bits())
	c := &Column{name: name, kind: Str, width: width, dict: dict}
	c.grow(len(values))
	for i, v := range values {
		code, _ := dict.Code(v)
		c.setU64(i, uint64(code))
	}
	return c
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Kind returns the logical column kind.
func (c *Column) Kind() Kind { return c.kind }

// Width returns the physical bytes per value.
func (c *Column) Width() int { return c.width }

// Code returns the AN code of a hardened column, or nil.
func (c *Column) Code() *an.Code { return c.code }

// IsHardened reports whether the column stores AN code words. Note that a
// hardened string column keeps kind Str; this method is the authoritative
// test.
func (c *Column) IsHardened() bool { return c.code != nil }

// Dict returns the dictionary of a string column, or nil.
func (c *Column) Dict() *Dict { return c.dict }

// Len returns the number of values.
func (c *Column) Len() int {
	switch c.width {
	case 1:
		return len(c.u8)
	case 2:
		return len(c.u16)
	case 4:
		return len(c.u32)
	default:
		return len(c.u64)
	}
}

// Bytes returns the memory the data array occupies - the unit of the
// storage-overhead comparisons (Figure 1b, Figure 8b). Dictionaries are
// accounted separately via Dict().Bytes().
func (c *Column) Bytes() int { return c.Len() * c.width }

// U8, U16, U32, U64 expose the physical array. They return nil when the
// column uses a different width; exactly one accessor is non-nil.
func (c *Column) U8() []uint8 { return c.u8 }

// U16 returns the 2-byte physical array, or nil.
func (c *Column) U16() []uint16 { return c.u16 }

// U32 returns the 4-byte physical array, or nil.
func (c *Column) U32() []uint32 { return c.u32 }

// U64 returns the 8-byte physical array, or nil.
func (c *Column) U64() []uint64 { return c.u64 }

func (c *Column) grow(n int) {
	switch c.width {
	case 1:
		c.u8 = append(c.u8, make([]uint8, n)...)
	case 2:
		c.u16 = append(c.u16, make([]uint16, n)...)
	case 4:
		c.u32 = append(c.u32, make([]uint32, n)...)
	default:
		c.u64 = append(c.u64, make([]uint64, n)...)
	}
	if c.packed != nil {
		c.packed.Grow(n)
		for j := 0; j < n; j++ {
			c.packed.Append(0)
		}
	}
	if c.resCheck != nil {
		c.resCheck = append(c.resCheck, make([]uint16, n)...)
	}
}

// storeRaw writes the physical word and its packed-mirror lane without
// refreshing the residue sidecar. It is the corruption hook: a flip must
// land in both data representations (the packed kernels and the wide
// kernels observe identical words) but must NOT recompute the check, or
// residue-hardened columns could never detect anything.
func (c *Column) storeRaw(i int, v uint64) {
	switch c.width {
	case 1:
		c.u8[i] = uint8(v)
	case 2:
		c.u16[i] = uint16(v)
	case 4:
		c.u32[i] = uint32(v)
	default:
		c.u64[i] = v
	}
	if c.packed != nil {
		c.packed.Set(i, v)
	}
}

func (c *Column) setU64(i int, v uint64) {
	c.storeRaw(i, v)
	if c.resCheck != nil {
		c.resCheck[i] = uint16(c.resCode.Residue(v))
	}
}

// Packed returns the lane-aligned mirror of a narrow hardened column, or
// nil when the column does not qualify (unprotected, or code wider than
// MaxPackedBits). The mirror holds the same raw code words as the wide
// array - flips injected through Corrupt land in both, masked to the
// code width like the fault framework's masks - so the packed kernels
// and the wide kernels observe identical data.
func (c *Column) Packed() *bitpack.Lanes { return c.packed }

// initPacked (re)builds the packed mirror from the wide array. Bulk
// constructors (Harden, Reencode, Slice, Replicate, the persist loader)
// call it once after filling; incremental mutations afterwards flow
// through grow/setU64 and keep the mirror in lockstep.
func (c *Column) initPacked() {
	c.packed = nil
	if c.code == nil || c.code.CodeBits() > MaxPackedBits {
		return
	}
	l, err := bitpack.NewHardenedLanes(c.code)
	if err != nil {
		return
	}
	c.bulk(nil, bulkOp{kind: bulkPack, lanes: l})
	c.packed = l
}

// Get returns the raw physical value at position i: the plain value for
// unprotected columns, the code word for hardened ones.
func (c *Column) Get(i int) uint64 {
	switch c.width {
	case 1:
		return uint64(c.u8[i])
	case 2:
		return uint64(c.u16[i])
	case 4:
		return uint64(c.u32[i])
	default:
		return c.u64[i]
	}
}

// Append adds a plain value to an unprotected column, or hardens and adds
// a plain value to a hardened column (UDI operations are orthogonal to
// hardening, Section 4.1: inserting into a hardened column just means
// inserting hardened data). A value beyond a narrowed code's domain
// first widens the column (see widen).
func (c *Column) Append(v uint64) {
	if c.code != nil {
		v = c.encode(v)
	}
	c.AppendRaw(v)
}

// encode hardens v under the column's code, widening the column first
// when v lies outside its domain, so growth never wraps.
func (c *Column) encode(v uint64) uint64 {
	if lo, hi := c.Domain(); (v < lo || v > hi) && (c.base != 0 || c.code.DataBits() < c.DeclaredBits()) {
		c.widen()
	}
	return c.code.Encode(v - c.base)
}

// widen re-hardens a narrowed or frame-of-reference column in place at
// its declared width and base 0: under LargestCodeChooser's code for the
// declared type, or under the declared-width code of the current code's
// own minimum bit-flip weight where that is stronger and published. A
// word the current code rejects is rewritten as a word the new code
// rejects too (an.Code.Poison), so widening never launders a corruption
// into a valid value. Like every mutation, it must not race the column's
// readers.
func (c *Column) widen() {
	bits := c.DeclaredBits()
	next, err := LargestCodeChooser(bits)
	if err != nil {
		return // unreachable: DeclaredBits is at most 48
	}
	if bfw := an.GuaranteedBFW(c.code.A(), c.code.DataBits()); bfw > an.GuaranteedBFW(next.A(), bits) {
		if stronger, err := an.ForMinBFW(bits, bfw); err == nil {
			next = stronger
		}
	}
	width, _ := widthForBits(next.CodeBits())
	out := &Column{width: width}
	out.grow(c.Len())
	for i := 0; i < c.Len(); i++ {
		d, ok := c.code.Check(c.Get(i))
		w := next.Poison(d)
		if ok {
			w = next.Encode(d + c.base)
		}
		out.storeRaw(i, w)
	}
	c.width, c.code, c.base, c.lifted = width, next, 0, nil
	c.u8, c.u16, c.u32, c.u64 = out.u8, out.u16, out.u32, out.u64
	c.initPacked()
}

// Base returns a hardened column's frame of reference: its array holds
// the code word of v-Base() for every value v. It is 0 for a column
// hardened as its values stand and for every unprotected column.
func (c *Column) Base() uint64 { return c.base }

// Domain returns the values a hardened column holds without widening:
// [Base(), Base()+MaxData].
func (c *Column) Domain() (lo, hi uint64) { return c.base, c.base + c.code.MaxData() }

// Check verifies code word w of a hardened column and returns the value
// it holds, the decoded word plus Base().
func (c *Column) Check(w uint64) (uint64, bool) {
	d, ok := c.code.Check(w)
	return d + c.base, ok
}

// LiftedCode returns the code base-0 words of the column verify under:
// Code() without a frame of reference, else the code with Code()'s A
// over [0, Base()+MaxData]. Operators that hand a column's words
// downstream (Gather) hand them under it, so nothing above storage sees
// a base.
func (c *Column) LiftedCode() *an.Code {
	if c.lifted != nil {
		return c.lifted
	}
	return c.code
}

// Lift maps a stored code word to its base-0 word under LiftedCode: a
// valid word gains Base()·A, a corrupted one becomes a word LiftedCode
// rejects too (an.Code.Poison). Without a frame of reference it returns w.
func (c *Column) Lift(w uint64) uint64 {
	if c.lifted == nil {
		return w
	}
	d, ok := c.code.Check(w)
	if !ok {
		return c.lifted.Poison(d)
	}
	return c.lifted.Encode(d + c.base)
}

// liftCode returns the code of the base-0 words of a column hardened
// under code with frame of reference base: nil for base 0, else code's A
// over [0, base+MaxData] - an error when those words do not fit 64 bits.
func liftCode(code *an.Code, base uint64) (*an.Code, error) {
	if base == 0 {
		return nil, nil
	}
	return an.New(code.A(), uint(bits.Len64(base+code.MaxData())))
}

// AppendRaw adds a raw physical value without encoding. Used by operators
// that already hold code words. One width dispatch per value, amortized
// growth: a loader that knows its row count calls Reserve first and never
// regrows.
func (c *Column) AppendRaw(v uint64) {
	switch c.width {
	case 1:
		c.u8 = append(c.u8, uint8(v))
	case 2:
		c.u16 = append(c.u16, uint16(v))
	case 4:
		c.u32 = append(c.u32, uint32(v))
	default:
		c.u64 = append(c.u64, v)
	}
	if c.packed != nil {
		c.packed.Append(v)
	}
	if c.resCheck != nil {
		c.resCheck = append(c.resCheck, uint16(c.resCode.Residue(v)))
	}
}

// Reserve makes room for n more values, so that the next n appends do
// not reallocate the data array, the packed mirror or the residue
// sidecar.
func (c *Column) Reserve(n int) {
	switch c.width {
	case 1:
		c.u8 = slices.Grow(c.u8, n)
	case 2:
		c.u16 = slices.Grow(c.u16, n)
	case 4:
		c.u32 = slices.Grow(c.u32, n)
	default:
		c.u64 = slices.Grow(c.u64, n)
	}
	if c.packed != nil {
		c.packed.Grow(n)
	}
	if c.resCheck != nil {
		c.resCheck = slices.Grow(c.resCheck, n)
	}
}

// Set overwrites position i with a plain value, hardening it first on
// hardened columns (the update of UDI).
func (c *Column) Set(i int, v uint64) {
	if c.code != nil {
		v = c.encode(v)
	}
	c.setU64(i, v)
}

// Value returns the decoded logical value at position i: hardened columns
// soften the code word (without detection - use CheckAll or the query
// operators for that).
func (c *Column) Value(i int) uint64 {
	v := c.Get(i)
	if c.code != nil {
		return c.code.Decode(v) + c.base
	}
	return v
}

// Str returns the string at position i of a dictionary-encoded or
// heap-backed column.
func (c *Column) Str(i int) (string, error) {
	if c.heap != nil {
		return c.heap.Get(c.Value(i))
	}
	if c.dict == nil {
		return "", fmt.Errorf("storage: column %q has no dictionary", c.name)
	}
	return c.dict.Value(uint32(c.Value(i)))
}

// Heap returns the string heap of a heap-backed column, or nil.
func (c *Column) Heap() *StringHeap { return c.heap }

// Harden returns a hardened copy of the column: every value multiplied by
// the code's A and stored in the narrowest native width for |D| + |A|
// bits. String columns keep their dictionary; their codes are hardened
// like any integer. Integer values beyond the code's data domain harden
// frame-of-reference (v-min) when their span fits it; a value the code
// cannot hold either way is an error, never a truncation.
func (c *Column) Harden(code *an.Code) (*Column, error) {
	lo, hi := c.minMax()
	if lo == 0 || uint(bits.Len64(hi)) <= code.DataBits() || c.kind == Str || c.kind == StrHeap {
		return c.harden(code, 0, hi)
	}
	return c.harden(code, lo, hi)
}

// hardenWith is Table.Harden's per-column step: the chooser's code for
// the declared width, or a narrower one for the bits the values occupy
// (narrowCode), or a narrower one still for the bits their span occupies
// (forCode).
func (c *Column) hardenWith(choose CodeChooser) (*Column, error) {
	code, err := choose(c.DeclaredBits())
	if err != nil {
		return nil, err
	}
	lo, hi := c.minMax()
	if narrow := narrowCode(c, uint(bits.Len64(hi)), code, choose); narrow != nil {
		code = narrow
	}
	if offset := forCode(c, lo, hi, code, choose); offset != nil {
		return c.harden(offset, lo, hi)
	}
	return c.harden(code, 0, hi)
}

// minMax returns the column's smallest and largest physical value, 0 and
// 0 for an empty column.
func (c *Column) minMax() (lo, hi uint64) {
	r := c.bulk(nil, bulkOp{kind: bulkMinMax})
	return r[0], r[1]
}

// DeclaredBits returns the data width the column hardens at before any
// narrowing: its kind's width, a dictionary column's byte-compressed
// dictionary width, clamped to the 48-bit resbig and heap-reference
// limit (Section 6.1). A narrowed code covers fewer bits.
func (c *Column) DeclaredBits() uint {
	bits := c.kind.DataBits()
	if c.kind == Str {
		w, _ := widthForBits(c.dict.Bits())
		bits = uint(w) * 8
	}
	return min(bits, 48)
}

// harden encodes the column under code in the frame of reference base;
// hi is its largest value.
func (c *Column) harden(code *an.Code, base, hi uint64) (*Column, error) {
	if c.code != nil {
		return nil, fmt.Errorf("storage: column %q already hardened", c.name)
	}
	if used := uint(bits.Len64(hi - base)); used > code.DataBits() {
		return nil, fmt.Errorf("storage: column %q holds %d-bit values, beyond the %d-bit data domain of %v", c.name, used, code.DataBits(), code)
	}
	lifted, err := liftCode(code, base)
	if err != nil {
		return nil, fmt.Errorf("storage: column %q from base %d: %w", c.name, base, err)
	}
	width, err := widthForBits(code.CodeBits())
	if err != nil {
		return nil, err
	}
	kind := c.kind
	if kind != Str && kind != StrHeap {
		kind, err = c.kind.Hardened()
		if err != nil {
			return nil, err
		}
	}
	out := &Column{name: c.name, kind: kind, width: width, code: code, base: base, lifted: lifted, dict: c.dict, heap: c.heap}
	out.grow(c.Len())
	c.bulk(out, bulkOp{kind: bulkMulMask, sub: base, pre: code.MaxData(), mul: code.A(), post: code.CodeMask()})
	out.initPacked()
	return out, nil
}

// Soften returns an unprotected copy of a hardened column, decoding every
// value without corruption checks (the plain softening of Section 3).
func (c *Column) Soften() (*Column, error) {
	out, err := c.softened()
	if err != nil {
		return nil, err
	}
	out.grow(c.Len())
	c.bulk(out, bulkOp{kind: bulkMulMask, pre: ^uint64(0), mul: c.code.AInv(), post: c.code.CodeMask(), add: c.base})
	return out, nil
}

// softened returns the empty unprotected counterpart of a hardened
// column: softened kind, data-domain width, shared dictionary and heap.
func (c *Column) softened() (*Column, error) {
	if c.code == nil {
		return nil, fmt.Errorf("storage: column %q is not hardened", c.name)
	}
	kind := c.kind
	if kind != Str && kind != StrHeap {
		var err error
		kind, err = c.kind.Softened()
		if err != nil {
			return nil, err
		}
	}
	return &Column{name: c.name, kind: kind, width: c.SoftenedWidth(), dict: c.dict, heap: c.heap}, nil
}

// PlainCopy returns an unprotected copy of the column's values at its
// declared width, verified on the way: AN code words through the Δ
// kernel, residue values against their sidecar, an unprotected column
// copied as it stands. The second result lists the positions that
// failed verification, in ascending order; their copied values are not
// to be trusted.
func (c *Column) PlainCopy() (*Column, []uint64) {
	switch {
	case c.code != nil:
		out, _ := c.softened()
		out.grow(c.Len())
		return out, c.CheckDecodeInto(out, 0, c.Len(), true)
	case c.resCheck != nil:
		return c.cloneData(), c.ResidueCheckRange(0, c.Len())
	}
	return c.cloneData(), nil
}

// SoftenedWidth returns the bytes per value Soften produces, 0 for a
// column that is not AN-hardened: the code's data width, or the
// declared one when that is wider, so a column hardened under a narrowed
// code softens back to its declared type.
func (c *Column) SoftenedWidth() int {
	if c.code == nil {
		return 0
	}
	w, _ := widthForBits(max(c.code.DataBits(), c.DeclaredBits()))
	return w
}

// SoftenedOver returns the unprotected counterpart of hardened column c
// as a header over caller-owned memory: buf must hold c.Len() values of
// SoftenedWidth bytes each. Nothing is decoded here - CheckDecodeInto
// fills it - and the column is only valid while the caller keeps buf;
// this is how the Δ operator softens into arena memory instead of a
// fresh allocation per query.
func SoftenedOver[T an.Unsigned](c *Column, buf []T) (*Column, error) {
	out, err := c.softened()
	if err != nil {
		return nil, err
	}
	switch b := any(buf).(type) {
	case []uint8:
		out.u8 = b
	case []uint16:
		out.u16 = b
	case []uint32:
		out.u32 = b
	case []uint64:
		out.u64 = b
	}
	// Len reads the array of out's width: a buffer of another width
	// leaves it empty, so one comparison covers width and count.
	if out.Len() != c.Len() {
		return nil, fmt.Errorf("storage: Δ buffer for %q must hold %d values of %d bytes, got %d of %T",
			c.name, c.Len(), out.width, len(buf), buf)
	}
	return out, nil
}

// CheckDecodeInto is the Δ kernel over rows [start, end): one pass that
// verifies every code word and writes its decoded value to the same
// position of dst (from Soften or SoftenedOver). It returns the
// corrupted positions in ascending order; those decode to whatever the
// corrupted word softens to. Disjoint ranges may run concurrently.
func (c *Column) CheckDecodeInto(dst *Column, start, end int, blocked bool) []uint64 {
	return c.bulk(dst, bulkOp{kind: bulkCheckDecode, code: c.code, add: c.base, blocked: blocked, start: start, end: end})
}

// CheckAll verifies every code word of a hardened column and returns the
// positions of corrupted values - the standalone Δ detection pass over a
// base column.
func (c *Column) CheckAll() ([]uint64, error) {
	if c.code == nil {
		return nil, fmt.Errorf("storage: column %q is not hardened", c.name)
	}
	return c.checkRange(0, c.Len()), nil
}

// checkRange AN-validates rows [start, end) and returns the corrupted
// positions; unprotected columns pass vacuously.
func (c *Column) checkRange(start, end int) []uint64 {
	if c.code == nil {
		return nil
	}
	return c.bulk(nil, bulkOp{kind: bulkCheck, code: c.code, start: start, end: end})
}

// Reencode re-hardens the column in place from its current code to next
// (Eq. 10) when both fit the same physical width; otherwise it returns a
// re-hardened copy at the required width.
func (c *Column) Reencode(next *an.Code) (*Column, error) {
	if c.code == nil {
		return nil, fmt.Errorf("storage: column %q is not hardened", c.name)
	}
	width, err := widthForBits(next.CodeBits())
	if err != nil {
		return nil, err
	}
	factor, _, err := c.code.ReencodeFactor(next)
	if err != nil {
		return nil, err
	}
	lifted, err := liftCode(next, c.base)
	if err != nil {
		return nil, fmt.Errorf("storage: column %q from base %d: %w", c.name, c.base, err)
	}
	out := c
	if width != c.width {
		out = &Column{name: c.name, kind: c.kind, width: width, base: c.base, dict: c.dict, heap: c.heap}
		out.grow(c.Len())
	}
	c.bulk(out, bulkOp{kind: bulkMulMask, pre: ^uint64(0), mul: factor, post: next.CodeMask()})
	out.code, out.lifted = next, lifted
	out.initPacked()
	return out, nil
}

// Corrupt XORs mask into the physical word at position i - the hook the
// fault-injection framework uses to place bit flips. The flip lands in
// the wide array and the packed mirror but leaves the residue sidecar
// untouched, so it stays detectable there too.
func (c *Column) Corrupt(i int, mask uint64) {
	c.storeRaw(i, c.Get(i)^mask)
}

// HardenResidue returns a residue-hardened copy of an unprotected
// column: values stay plain (the unprotected kernels keep running at
// full speed) and a 16-bit check word per value carries the value modulo
// 2^checkBits - 1 for at-rest verification. The cheap tier the adaptive
// controller assigns to cold columns.
func (c *Column) HardenResidue(checkBits uint) (*Column, error) {
	if c.code != nil {
		return nil, fmt.Errorf("storage: column %q is AN-hardened; soften before residue hardening", c.name)
	}
	rc, err := residue.New(checkBits)
	if err != nil {
		return nil, err
	}
	out := c.cloneData()
	out.resCode, out.resCheck = rc, make([]uint16, c.Len())
	out.bulk(nil, bulkOp{kind: bulkResidueFill, res: rc, checks: out.resCheck})
	return out, nil
}

// ResidueCode returns the residue code of a residue-hardened column, or
// nil.
func (c *Column) ResidueCode() *residue.Code { return c.resCode }

// IsResidueHardened reports whether the column carries a residue
// sidecar.
func (c *Column) IsResidueHardened() bool { return c.resCheck != nil }

// ResidueCheckAll verifies every value of a residue-hardened column
// against its check word and returns the positions that mismatch - the
// standalone detection pass scrubs run over residue columns.
func (c *Column) ResidueCheckAll() ([]uint64, error) {
	if c.resCheck == nil {
		return nil, fmt.Errorf("storage: column %q is not residue-hardened", c.name)
	}
	return c.ResidueCheckRange(0, c.Len()), nil
}

// BadPositions verifies a column at rest and returns its corrupted
// positions in ascending order: AN columns by their code (CheckAll),
// residue columns against their sidecar (ResidueCheckAll). An
// unprotected column has nothing to verify and reports none. It is the
// one question scrubs, re-hardens and anti-entropy ask of a column.
func (c *Column) BadPositions() []uint64 {
	switch {
	case c.code != nil:
		return c.checkRange(0, c.Len())
	case c.resCheck != nil:
		return c.ResidueCheckRange(0, c.Len())
	}
	return nil
}

// ResidueCheckRange is ResidueCheckAll over rows [start, end) of a
// residue-hardened column (the morsel unit of the Early Δ).
func (c *Column) ResidueCheckRange(start, end int) []uint64 {
	return c.bulk(nil, bulkOp{kind: bulkResidueCheck, res: c.resCode, checks: c.resCheck, start: start, end: end})
}

// DropResidue returns an unprotected copy of a residue-hardened column
// (the values are already plain; only the sidecar is dropped).
func (c *Column) DropResidue() (*Column, error) {
	if c.resCheck == nil {
		return nil, fmt.Errorf("storage: column %q is not residue-hardened", c.name)
	}
	return c.cloneData(), nil
}

// cloneData returns a column with c's header (minus code-specific
// mirrors and sidecars, which the caller rebuilds) over a copy of its
// physical array.
func (c *Column) cloneData() *Column {
	return &Column{
		name: c.name, kind: c.kind, width: c.width, code: c.code, base: c.base, lifted: c.lifted, dict: c.dict, heap: c.heap,
		u8:  append([]uint8(nil), c.u8...),
		u16: append([]uint16(nil), c.u16...),
		u32: append([]uint32(nil), c.u32...),
		u64: append([]uint64(nil), c.u64...),
	}
}
