package storage

import (
	"fmt"
	"math/bits"
	"sync"

	"ahead/internal/an"
)

// Table groups equally long columns, DSM-style: record i of the table is
// position i across all columns (Section 4).
//
// The column set is guarded by a read-write mutex so ReplaceColumn can
// atomically swap in a re-hardened column while queries run: readers
// resolve the *Column pointer under RLock and then work on an immutable
// snapshot - in-flight queries that resolved before a swap keep running
// on the old encoding, which is never mutated by the swap.
type Table struct {
	name string

	mu      sync.RWMutex
	columns []*Column
	byName  map[string]*Column
}

// NewTable creates an empty table.
func NewTable(name string) *Table {
	return &Table{name: name, byName: make(map[string]*Column)}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// AddColumn attaches a column; all columns must have equal length.
func (t *Table) AddColumn(c *Column) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.byName[c.Name()]; dup {
		return fmt.Errorf("storage: duplicate column %q in table %q", c.Name(), t.name)
	}
	if len(t.columns) > 0 && c.Len() != t.columns[0].Len() {
		return fmt.Errorf("storage: column %q has %d rows, table %q has %d",
			c.Name(), c.Len(), t.name, t.columns[0].Len())
	}
	t.columns = append(t.columns, c)
	t.byName[c.Name()] = c
	return nil
}

// ReplaceColumn atomically swaps an existing column for a same-named,
// same-length replacement - the publication step of online
// re-hardening. The old column is left untouched, so queries that
// resolved it before the swap finish on the old encoding.
func (t *Table) ReplaceColumn(c *Column) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.byName[c.Name()]
	if !ok {
		return fmt.Errorf("storage: no column %q in table %q to replace", c.Name(), t.name)
	}
	if c.Len() != old.Len() {
		return fmt.Errorf("storage: replacement column %q has %d rows, table %q has %d",
			c.Name(), c.Len(), t.name, old.Len())
	}
	for i, ec := range t.columns {
		if ec == old {
			t.columns[i] = c
			break
		}
	}
	t.byName[c.Name()] = c
	return nil
}

// Column returns the named column.
func (t *Table) Column(name string) (*Column, error) {
	t.mu.RLock()
	c, ok := t.byName[name]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: no column %q in table %q", name, t.name)
	}
	return c, nil
}

// MustColumn is Column but panics on a missing name; query plans use it
// for statically known schemas.
func (t *Table) MustColumn(name string) *Column {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Columns returns a snapshot of all columns in attachment order (a copy,
// so a concurrent ReplaceColumn cannot race the caller's iteration).
func (t *Table) Columns() []*Column {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Column(nil), t.columns...)
}

// Rows returns the number of records.
func (t *Table) Rows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.columns) == 0 {
		return 0
	}
	return t.columns[0].Len()
}

// Bytes returns the summed data-array footprint of all columns plus their
// dictionaries and string heaps (each counted once). Heaps and
// dictionaries never grow under hardening - only the fixed-width arrays
// widen - which is why the end-to-end storage overhead of AHEAD stays
// well below DMR's 2x (Figure 1b).
func (t *Table) Bytes() int {
	total := 0
	seenDict := make(map[*Dict]bool)
	seenHeap := make(map[*StringHeap]bool)
	for _, c := range t.Columns() {
		total += c.Bytes()
		if d := c.Dict(); d != nil && !seenDict[d] {
			seenDict[d] = true
			total += d.Bytes()
		}
		if h := c.Heap(); h != nil && !seenHeap[h] {
			seenHeap[h] = true
			total += h.Bytes()
		}
	}
	return total
}

// CodeChooser selects the AN code for a column during table hardening.
// The paper's end-to-end policy (Section 6.2) hardens with the largest
// known super A for the column's data width; the Figure 8 experiment
// instead selects the smallest A for a target minimum bit-flip weight.
type CodeChooser func(dataBits uint) (*an.Code, error)

// LargestCodeChooser picks the largest published super A whose code fits
// the next native register width, the Section 6 default. Data wider than
// the published tables (the 48-bit resbig / heap-reference domain) is
// hardened with the strongest 32-bit constant; like the paper's resbig,
// its exact minimum-bit-flip-weight guarantee at that width is not
// published ("tbc" in Table 3), but the code detects every non-multiple.
func LargestCodeChooser(dataBits uint) (*an.Code, error) {
	if dataBits > 48 {
		return nil, fmt.Errorf("storage: no hardening beyond 48-bit data, got %d", dataBits)
	}
	if dataBits > 32 {
		return an.New(32417, dataBits)
	}
	budget := dataBits * 2
	if budget > 64 {
		budget = 64
	}
	return an.LargestKnown(dataBits, budget)
}

// MinBFWCodeChooser picks the smallest super A guaranteeing the given
// minimum bit-flip weight (the Figure 8 sweep). Widths beyond the
// published tables reuse the 32-bit constant with the caveat described at
// LargestCodeChooser.
func MinBFWCodeChooser(minBFW int) CodeChooser {
	return func(dataBits uint) (*an.Code, error) {
		if dataBits > 32 && dataBits <= 48 {
			a, ok := an.SuperA(32, minBFW)
			if !ok {
				return nil, fmt.Errorf("storage: no published A for min bfw %d at wide data", minBFW)
			}
			return an.New(a, dataBits)
		}
		return an.ForMinBFW(dataBits, minBFW)
	}
}

// narrowCode extends byte-level compression (Section 6.1) to integer
// columns (dictionary strings already harden at their byte-compressed
// width). |D| is the bit length of the column's largest value; the
// candidates are the chooser's constants for every published data width
// from |D| up, each carrying at |D| the guarantee the tables give it at
// its own width (an.GuaranteedBFW). Native registers narrower than
// declared's code word are tried narrowest first, each with the
// strongest candidate whose |D|+|A| bits fit it, and the first one
// guaranteeing at least declared's minimum bit-flip weight (and at least
// one) wins - so narrowing never weakens a column. It returns nil when
// no narrower register qualifies.
func narrowCode(c *Column, usedBits uint, declared *an.Code, choose CodeChooser) *an.Code {
	if c.Kind() == Str || c.Kind() == StrHeap || c.Len() == 0 {
		return nil
	}
	bits := max(usedBits, 1)
	// A code declared wider than the tables (the 48-bit resbig) keeps at
	// least the guarantee its A is published with at their widest width.
	floor := max(an.GuaranteedBFW(declared.A(), min(declared.DataBits(), an.MaxTableDataBits)), 1)
	var cands []*an.Code
	for d := bits; d <= an.MaxTableDataBits; d++ {
		if code, err := choose(d); err == nil {
			if cand, err := an.New(code.A(), bits); err == nil {
				cands = append(cands, cand)
			}
		}
	}
	declaredWord, _ := widthForBits(declared.CodeBits())
	for _, word := range []uint{8, 16, 32} {
		if word >= uint(declaredWord)*8 {
			break
		}
		var best *an.Code
		bestBFW := 0
		for _, cand := range cands {
			if bfw := an.GuaranteedBFW(cand.A(), bits); cand.CodeBits() <= word && bfw > bestBFW {
				best, bestBFW = cand, bfw
			}
		}
		if bestBFW >= floor {
			return best
		}
	}
	return nil
}

// forCode is frame-of-reference hardening (Paper §6.1 compresses before
// it hardens): an integer column whose values [lo, hi] sit far from zero
// stores v-lo under a code sized by the bits of the span hi-lo
// (narrowCode over the span, with code - the declared or narrowed code
// of the values as they stand - as the guarantee to keep). It returns
// that code only where it lands in a narrower word than code and the
// column's base-0 words (Column.LiftedCode) still fit 64 bits; else nil.
func forCode(c *Column, lo, hi uint64, code *an.Code, choose CodeChooser) *an.Code {
	if lo == 0 {
		return nil
	}
	cand := narrowCode(c, uint(bits.Len64(hi-lo)), code, choose)
	if cand == nil {
		return nil
	}
	if _, err := liftCode(cand, lo); err != nil {
		return nil
	}
	return cand
}

// Harden returns a hardened copy of the table: every column encoded with
// the code the chooser assigns it - at the bits its values occupy when
// that fits a narrower register without weakening the guarantee
// (narrowCode), at the bits of their span from a frame of reference when
// that fits a narrower register still (forCode), else at its declared
// width. Dictionaries are shared with
// the source table (they are immutable). A value beyond the declared
// domain (a bigint above the 48-bit resbig limit) is an error naming the
// column, never a truncation.
func (t *Table) Harden(choose CodeChooser) (*Table, error) {
	out := NewTable(t.name)
	for _, c := range t.Columns() {
		hc, err := c.hardenWith(choose)
		if err != nil {
			return nil, fmt.Errorf("storage: hardening %s.%s: %w", t.name, c.Name(), err)
		}
		if err := out.AddColumn(hc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Replicate returns a deep copy of the table's columns - the second
// replica DMR keeps in a distinct memory region.
func (t *Table) Replicate() (*Table, error) {
	out := NewTable(t.name)
	for _, c := range t.Columns() {
		cp := c.cloneData()
		cp.resCode = c.resCode
		cp.resCheck = append([]uint16(nil), c.resCheck...)
		cp.initPacked()
		if err := out.AddColumn(cp); err != nil {
			return nil, err
		}
	}
	return out, nil
}
