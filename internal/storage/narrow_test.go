package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"strings"
	"testing"

	"ahead/internal/an"
)

// intTable returns a one-column table "t" whose column c of the given
// kind holds 0, step, 2*step, ... and then top.
func intTable(t *testing.T, kind Kind, top, step uint64) (*Table, *Column) {
	t.Helper()
	tb := NewTable("t")
	c, err := NewColumn("c", kind)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v <= top; v += step {
		c.Append(v)
	}
	c.Append(top)
	if err := tb.AddColumn(c); err != nil {
		t.Fatal(err)
	}
	return tb, c
}

func TestHardenRefusesValuesBeyondResbig(t *testing.T) {
	tb, c := intTable(t, BigInt, 1, 1)
	c.Set(0, 1<<50|7)
	_, err := tb.Harden(LargestCodeChooser)
	if err == nil {
		t.Fatal("a bigint above the 48-bit resbig domain must not harden")
	}
	if !strings.Contains(err.Error(), "t.c") {
		t.Fatalf("error %q does not name t.c", err)
	}
	// Column.Harden refuses the same value directly.
	code, _ := LargestCodeChooser(48)
	if _, err := c.Harden(code); err == nil {
		t.Fatal("Column.Harden must refuse a value beyond the code's domain")
	}
}

// TestNarrowNeverWeakensAGuarantee sweeps every domain width of every
// integer kind under each chooser: a narrowed code lands in a narrower
// word than the declared code, guarantees at least its minimum bit-flip
// weight, and a column whose word cannot shrink keeps exactly the
// declared code.
func TestNarrowNeverWeakensAGuarantee(t *testing.T) {
	choosers := map[string]CodeChooser{"largest": LargestCodeChooser}
	for w := 1; w <= 4; w++ {
		choosers["minbfw"+string(rune('0'+w))] = MinBFWCodeChooser(w)
	}
	for name, choose := range choosers {
		for _, kind := range []Kind{TinyInt, ShortInt, Int, BigInt} {
			for d := uint(1); d <= min(kind.DataBits(), 48); d++ {
				top := uint64(1)<<d - 1
				tb, _ := intTable(t, kind, top, top/7+1)
				declared, err := choose(min(kind.DataBits(), 48))
				if err != nil {
					continue // the chooser has no code for this kind at all
				}
				h, err := tb.Harden(choose)
				if err != nil {
					t.Fatalf("%s %v d=%d: %v", name, kind, d, err)
				}
				hc := h.MustColumn("c")
				code := hc.Code()
				declaredWidth, _ := widthForBits(declared.CodeBits())
				if code.A() == declared.A() && code.DataBits() == declared.DataBits() {
					if hc.Width() != declaredWidth {
						t.Fatalf("%s %v d=%d: declared code in a %d-byte word", name, kind, d, hc.Width())
					}
					continue
				}
				if hc.Width() >= declaredWidth {
					t.Fatalf("%s %v d=%d: changed code %v without a narrower word", name, kind, d, code)
				}
				if code.DataBits() != d {
					t.Fatalf("%s %v d=%d: narrowed to |D|=%d", name, kind, d, code.DataBits())
				}
				got, floor := an.GuaranteedBFW(code.A(), d), an.GuaranteedBFW(declared.A(), min(declared.DataBits(), an.MaxTableDataBits))
				if got < max(floor, 1) {
					t.Fatalf("%s %v d=%d: %v guarantees %d, declared %v %d", name, kind, d, code, got, declared, floor)
				}
				if bad, _ := hc.CheckAll(); len(bad) != 0 {
					t.Fatalf("%s %v d=%d: %d invalid words", name, kind, d, len(bad))
				}
			}
		}
	}
	offsetNeverWeakensAGuarantee(t, choosers)
}

// offsetNeverWeakensAGuarantee is TestNarrowNeverWeakensAGuarantee over
// offset domains: values base+[0, 2^d) for bases far from zero. A column
// hardened from a frame of reference must be based at its smallest
// value, size |D| from the span, land in a narrower word than hardening
// its values as they stand would, guarantee at least the declared
// minimum bit-flip weight, and decode every value back; a column that
// keeps base 0 keeps exactly the code it would have had.
func offsetNeverWeakensAGuarantee(t *testing.T, choosers map[string]CodeChooser) {
	offsets := 0
	for name, choose := range choosers {
		for _, kind := range []Kind{ShortInt, Int, BigInt} {
			for _, base := range []uint64{1000, 19920101, 1 << 30, 1 << 40} {
				if bits.Len64(base) >= int(min(kind.DataBits(), 48)) {
					continue
				}
				for d := uint(1); d <= 24 && base+1<<d-1 < 1<<min(kind.DataBits(), 48); d++ {
					top := uint64(1)<<d - 1
					tb, c := intTable(t, kind, top, top/7+1)
					for i := 0; i < c.Len(); i++ {
						c.Set(i, c.Value(i)+base)
					}
					declared, err := choose(min(kind.DataBits(), 48))
					if err != nil {
						continue
					}
					h, err := tb.Harden(choose)
					if err != nil {
						t.Fatalf("%s %v base=%d d=%d: %v", name, kind, base, d, err)
					}
					hc := h.MustColumn("c")
					asIs := declared
					if narrow := narrowCode(c, uint(bits.Len64(base+top)), declared, choose); narrow != nil {
						asIs = narrow
					}
					asIsWidth, _ := widthForBits(asIs.CodeBits())
					id := fmt.Sprintf("%s %v base=%d d=%d", name, kind, base, d)
					for i := 0; i < c.Len(); i++ {
						if hc.Value(i) != c.Value(i) {
							t.Fatalf("%s: row %d reads %d, want %d", id, i, hc.Value(i), c.Value(i))
						}
					}
					if bad, _ := hc.CheckAll(); len(bad) != 0 {
						t.Fatalf("%s: %d invalid words", id, len(bad))
					}
					code := hc.Code()
					if hc.Base() == 0 {
						if code.A() != asIs.A() || code.DataBits() != asIs.DataBits() {
							t.Fatalf("%s: base 0 under %v, want %v", id, code, asIs)
						}
						continue
					}
					offsets++
					if hc.Base() != base || code.DataBits() != d {
						t.Fatalf("%s: based at %d with |D|=%d", id, hc.Base(), code.DataBits())
					}
					if hc.Width() >= asIsWidth {
						t.Fatalf("%s: frame of reference in %d bytes, as-is %v in %d", id, hc.Width(), asIs, asIsWidth)
					}
					got, floor := an.GuaranteedBFW(code.A(), d), an.GuaranteedBFW(declared.A(), min(declared.DataBits(), an.MaxTableDataBits))
					if got < max(floor, 1) {
						t.Fatalf("%s: %v guarantees %d, declared %v %d", id, code, got, declared, floor)
					}
					if lifted := hc.LiftedCode(); lifted.A() != code.A() || lifted.MaxData() < base+code.MaxData() {
						t.Fatalf("%s: lifted code %v", id, lifted)
					}
				}
			}
		}
	}
	if offsets == 0 {
		t.Fatal("no column hardened from a frame of reference; the sweep is vacuous")
	}
}

func TestNarrowPicksTheStrongestFittingCode(t *testing.T) {
	// 9000 keys occupy 14 bits: under A=63877 (16 bits) they fit a
	// 32-bit word with min-bfw 5, where the declared resint code is
	// A=32417 in a 64-bit word with min-bfw 4.
	tb, _ := intTable(t, Int, 9000, 1)
	h, err := tb.Harden(LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	hc := h.MustColumn("c")
	if c := hc.Code(); c.A() != 63877 || c.DataBits() != 14 || hc.Width() != 4 || an.GuaranteedBFW(c.A(), 14) != 5 {
		t.Fatalf("9000 keys hardened as %v in %d bytes", c, hc.Width())
	}
	// MinBFWCodeChooser narrows at its own floor: the smallest A for
	// min-bfw 2 on 14-bit data.
	h, err = tb.Harden(MinBFWCodeChooser(2))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := an.ForMinBFW(14, 2)
	if c := h.MustColumn("c").Code(); c.A() != want.A() || c.DataBits() != 14 {
		t.Fatalf("min-bfw 2 hardened as %v, want %v", c, want)
	}
	// A date key (25 bits) cannot shrink its word without a weaker
	// guarantee: it keeps exactly the declared code.
	tb, _ = intTable(t, Int, 19981230, 1<<20)
	h, err = tb.Harden(LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	if c := h.MustColumn("c").Code(); c.A() != 32417 || c.DataBits() != 32 || h.MustColumn("c").Width() != 8 {
		t.Fatalf("date keys hardened as %v", c)
	}
}

func TestNarrowGrowthWidensInsteadOfWrapping(t *testing.T) {
	for _, grow := range []string{"append", "set"} {
		tb, c := intTable(t, Int, 1000, 1)
		h, err := tb.Harden(LargestCodeChooser)
		if err != nil {
			t.Fatal(err)
		}
		hc := h.MustColumn("c")
		narrow := hc.Code()
		if narrow.DataBits() != 10 || hc.Width() != 4 {
			t.Fatalf("setup: %v in %d bytes", narrow, hc.Width())
		}
		// A flip the narrowed code detects must stay detected.
		hc.Corrupt(3, 1<<5)
		big := uint64(1)<<31 + 5
		switch grow {
		case "append":
			hc.Append(big)
			c.Append(big)
		case "set":
			hc.Set(7, big)
			c.Set(7, big)
		}
		declared, _ := LargestCodeChooser(32)
		if got := hc.Code(); got.A() != declared.A() || got.DataBits() != 32 || hc.Width() != 8 {
			t.Fatalf("%s: grown column holds %v in %d bytes, want the declared %v", grow, got, hc.Width(), declared)
		}
		if hc.Len() != c.Len() {
			t.Fatalf("%s: %d rows, want %d", grow, hc.Len(), c.Len())
		}
		for i := 0; i < c.Len(); i++ {
			if i != 3 && hc.Value(i) != c.Value(i) {
				t.Fatalf("%s: row %d reads %d, want %d", grow, i, hc.Value(i), c.Value(i))
			}
		}
		if bad, _ := hc.CheckAll(); len(bad) != 1 || bad[0] != 3 {
			t.Fatalf("%s: after widening the flip at row 3 reads as %v", grow, bad)
		}
	}
}

func TestNarrowSoftensToTheDeclaredWidth(t *testing.T) {
	tb, c := intTable(t, Int, 9000, 3)
	h, err := tb.Harden(LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	hc := h.MustColumn("c")
	if hc.Code().DataBits() != 14 {
		t.Fatalf("setup: %v", hc.Code())
	}
	soft, err := hc.Soften()
	if err != nil {
		t.Fatal(err)
	}
	if soft.Kind() != Int || soft.Width() != 4 || hc.SoftenedWidth() != 4 {
		t.Fatalf("softened to %v in %d bytes", soft.Kind(), soft.Width())
	}
	res, err := soft.HardenResidue(8)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := res.DropResidue()
	if err != nil {
		t.Fatal(err)
	}
	cp, bad := hc.PlainCopy()
	for _, col := range []*Column{soft, res, dropped, cp} {
		if col.Width() != 4 || col.Len() != c.Len() {
			t.Fatalf("%d rows in %d bytes, want %d in 4", col.Len(), col.Width(), c.Len())
		}
		for i := 0; i < c.Len(); i++ {
			if col.Value(i) != c.Value(i) {
				t.Fatalf("row %d reads %d, want %d", i, col.Value(i), c.Value(i))
			}
		}
	}
	if len(bad) != 0 {
		t.Fatalf("clean column copies with %d failures", len(bad))
	}
	hc.Corrupt(5, 1<<2)
	if _, bad = hc.PlainCopy(); len(bad) != 1 || bad[0] != 5 {
		t.Fatalf("PlainCopy reports %v, want [5]", bad)
	}
}

func TestNarrowedColumnRoundTripsThroughASnapshot(t *testing.T) {
	tb, _ := intTable(t, Int, 9000, 7)
	h, err := tb.Harden(LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveTable(dir, h); err != nil {
		t.Fatal(err)
	}
	back, bad, err := LoadTable(dir)
	if err != nil || len(bad) != 0 {
		t.Fatalf("load: %v, %v", bad, err)
	}
	want, got := h.MustColumn("c"), back.MustColumn("c")
	if got.Code().A() != want.Code().A() || got.Code().DataBits() != want.Code().DataBits() ||
		got.Width() != want.Width() || got.Kind() != want.Kind() || got.SoftenedWidth() != 4 {
		t.Fatalf("reloaded %v/%v in %d bytes, saved %v/%v in %d", got.Kind(), got.Code(), got.Width(),
			want.Kind(), want.Code(), want.Width())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Get(i) != want.Get(i) {
			t.Fatalf("row %d: word %d, saved %d", i, got.Get(i), want.Get(i))
		}
	}
	if n := bits.Len64(got.Code().MaxData()); n != 14 {
		t.Fatalf("reloaded domain %d bits", n)
	}
}

// forTable returns a one-column table "t" whose Int column c holds
// yyyymmdd-like values base+[0, 61130) (a 16-bit span far from zero)
// and its frame-of-reference hardened copy's column.
func forTable(t *testing.T) (*Column, *Column) {
	t.Helper()
	tb, c := intTable(t, Int, 61129, 97)
	for i := 0; i < c.Len(); i++ {
		c.Set(i, c.Value(i)+19920101)
	}
	h, err := tb.Harden(LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	hc := h.MustColumn("c")
	if code := hc.Code(); hc.Base() != 19920101 || code.A() != 63877 || code.DataBits() != 16 || hc.Width() != 4 {
		t.Fatalf("setup: %v from base %d in %d bytes", code, hc.Base(), hc.Width())
	}
	return c, hc
}

// TestFORGrowthWidensInsteadOfWrapping: a value below a
// frame-of-reference column's base or above base+dmax, appended or set,
// widens the column to its declared width at base 0 instead of wrapping
// into the offset domain; every old value still decodes, and a flip
// planted before the growth stays detected. A value inside the domain
// keeps the column as it is.
func TestFORGrowthWidensInsteadOfWrapping(t *testing.T) {
	for _, grow := range []string{"append", "set"} {
		for _, v := range []uint64{19920101 - 1, 19920101 + 1<<16, 5} {
			c, hc := forTable(t)
			hc.Corrupt(3, 1<<5)
			id := fmt.Sprintf("%s %d", grow, v)
			inside := c.Value(4) + 1
			switch grow {
			case "append":
				hc.Append(inside)
				c.Append(inside)
			case "set":
				hc.Set(9, inside)
				c.Set(9, inside)
			}
			if hc.Base() != 19920101 || hc.Width() != 4 {
				t.Fatalf("%s: a value inside the domain moved the column to base %d in %d bytes", id, hc.Base(), hc.Width())
			}
			switch grow {
			case "append":
				hc.Append(v)
				c.Append(v)
			case "set":
				hc.Set(7, v)
				c.Set(7, v)
			}
			declared, _ := LargestCodeChooser(32)
			if got := hc.Code(); hc.Base() != 0 || got.A() != declared.A() || got.DataBits() != 32 || hc.Width() != 8 || hc.LiftedCode() != got {
				t.Fatalf("%s: grown column holds %v from base %d in %d bytes, want the declared %v", id, got, hc.Base(), hc.Width(), declared)
			}
			if hc.Len() != c.Len() {
				t.Fatalf("%s: %d rows, want %d", id, hc.Len(), c.Len())
			}
			for i := 0; i < c.Len(); i++ {
				if i != 3 && hc.Value(i) != c.Value(i) {
					t.Fatalf("%s: row %d reads %d, want %d", id, i, hc.Value(i), c.Value(i))
				}
			}
			if bad, _ := hc.CheckAll(); len(bad) != 1 || bad[0] != 3 {
				t.Fatalf("%s: after widening the flip at row 3 reads as %v", id, bad)
			}
		}
	}
}

// TestFORReadersAddTheBaseBack: every way storage hands values out of a
// frame-of-reference column - Value, Check, Soften, PlainCopy, the Δ
// kernel, Lift under LiftedCode - yields the plain value, and Lift keeps
// a corrupted word invalid, including one that is a multiple of A
// beyond the 16-bit domain (valid under the lifted code's wider domain
// if lifted naively).
func TestFORReadersAddTheBaseBack(t *testing.T) {
	c, hc := forTable(t)
	soft, err := hc.Soften()
	if err != nil {
		t.Fatal(err)
	}
	cp, bad := hc.PlainCopy()
	if len(bad) != 0 {
		t.Fatalf("PlainCopy of a clean column reports %v", bad)
	}
	for i := 0; i < c.Len(); i++ {
		want := c.Value(i)
		v, ok := hc.Check(hc.Get(i))
		d, okL := hc.LiftedCode().Check(hc.Lift(hc.Get(i)))
		if !ok || v != want || soft.Value(i) != want || cp.Value(i) != want || !okL || d != want {
			t.Fatalf("row %d: check %d/%v soften %d copy %d lift %d/%v, want %d", i, v, ok, soft.Value(i), cp.Value(i), d, okL, want)
		}
	}
	code := hc.Code()
	for _, w := range []uint64{hc.Get(1) ^ 1<<4, (code.MaxData() + 7) * code.A() & code.CodeMask()} {
		if _, ok := code.Check(w); ok {
			t.Fatalf("word %d is valid in the narrow domain", w)
		}
		if _, ok := hc.LiftedCode().Check(hc.Lift(w)); ok {
			t.Fatalf("word %d lifts to a valid base-0 word", w)
		}
	}
	if lo, hi := hc.Domain(); lo != 19920101 || hi != 19920101+code.MaxData() {
		t.Fatalf("domain [%d, %d]", lo, hi)
	}
}

// TestFORColumnRoundTripsThroughASnapshot: the version 3 header carries
// the base, so a frame-of-reference column reloads word for word and
// value for value; the lazy reader reports it too.
func TestFORColumnRoundTripsThroughASnapshot(t *testing.T) {
	c, hc := forTable(t)
	dir := t.TempDir()
	tb := NewTable("t")
	if err := tb.AddColumn(hc); err != nil {
		t.Fatal(err)
	}
	if err := SaveTable(dir, tb); err != nil {
		t.Fatal(err)
	}
	back, bad, err := LoadTable(dir)
	if err != nil || len(bad) != 0 {
		t.Fatalf("load: %v, %v", bad, err)
	}
	got := back.MustColumn("c")
	if got.Base() != hc.Base() || got.Code().A() != hc.Code().A() || got.Width() != hc.Width() {
		t.Fatalf("reloaded %v from base %d, saved %v from %d", got.Code(), got.Base(), hc.Code(), hc.Base())
	}
	for i := 0; i < c.Len(); i++ {
		if got.Get(i) != hc.Get(i) || got.Value(i) != c.Value(i) {
			t.Fatalf("row %d: word %d value %d, saved %d value %d", i, got.Get(i), got.Value(i), hc.Get(i), c.Value(i))
		}
	}
	snap, err := OpenColumnSnapshot(dir+"/c.col", "c")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	words, err := snap.ReadRows(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := VerifiedValues(snap.Code(), snap.Base(), words, 0, []uint64{0, 2})
	if err != nil || vals[0] != c.Value(0) || vals[1] != c.Value(2) || snap.Base() != hc.Base() {
		t.Fatalf("snapshot values %v (base %d), want [%d %d]: %v", vals, snap.Base(), c.Value(0), c.Value(2), err)
	}
}

// writeColumnV2 serializes a column in the version 2 layout - magic
// "AHEADCO2", a six-field header without base - as files written before
// frames of reference existed look.
func writeColumnV2(t *testing.T, c *Column, chunkRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	hdr := append([]byte(nil), persistMagicV2[:]...)
	for _, v := range []uint64{uint64(c.kind), uint64(c.width), c.code.A(), uint64(c.code.DataBits()), uint64(c.Len()), uint64(chunkRows)} {
		hdr = binary.AppendUvarint(hdr, v)
	}
	buf.Write(hdr)
	buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(hdr)))
	for start := 0; start < c.Len(); start += chunkRows {
		payload := appendChunkPayload(nil, c, start, min(start+chunkRows, c.Len()))
		buf.Write(payload)
		buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload)))
	}
	return buf.Bytes()
}

// TestSnapshotV2HeaderLoadsAsBaseZero: a snapshot written before the
// header carried a base loads as base 0 - exactly the column it was -
// and a flip in it is still found at its position.
func TestSnapshotV2HeaderLoadsAsBaseZero(t *testing.T) {
	tb, c := intTable(t, Int, 9000, 7)
	h, err := tb.Harden(LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	hc := h.MustColumn("c")
	hc.Corrupt(11, 1<<3)
	file := writeColumnV2(t, hc, 100)
	got, bad, err := ReadColumn(bytes.NewReader(file), "c")
	if err != nil {
		t.Fatal(err)
	}
	if got.Base() != 0 || got.Code().A() != hc.Code().A() || got.Code().DataBits() != hc.Code().DataBits() || got.Width() != hc.Width() {
		t.Fatalf("v2 file loads as %v from base %d in %d bytes", got.Code(), got.Base(), got.Width())
	}
	if len(bad) != 1 || bad[0] != 11 {
		t.Fatalf("v2 load reports %v, want [11]", bad)
	}
	for i := 0; i < c.Len(); i++ {
		if i != 11 && got.Value(i) != c.Value(i) {
			t.Fatalf("row %d reads %d, want %d", i, got.Value(i), c.Value(i))
		}
	}
	path := t.TempDir() + "/c.col"
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenColumnSnapshot(path, "c")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Base() != 0 || snap.Rows() != c.Len() {
		t.Fatalf("v2 snapshot: base %d, %d rows", snap.Base(), snap.Rows())
	}
}
