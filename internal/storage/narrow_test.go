package storage

import (
	"math/bits"
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
				got, floor := an.GuaranteedBFW(code.A(), d), an.GuaranteedBFW(declared.A(), declared.DataBits())
				if got < max(floor, 1) {
					t.Fatalf("%s %v d=%d: %v guarantees %d, declared %v %d", name, kind, d, code, got, declared, floor)
				}
				if bad, _ := hc.CheckAll(); len(bad) != 0 {
					t.Fatalf("%s %v d=%d: %d invalid words", name, kind, d, len(bad))
				}
			}
		}
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
