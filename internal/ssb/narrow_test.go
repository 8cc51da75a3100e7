package ssb

import (
	"reflect"
	"sort"
	"testing"

	"ahead/internal/an"
	"ahead/internal/storage"
)

// TestNarrowedCodesDetectEveryFlipUpToMinBFW applies the detection
// invariant (DESIGN.md §9) to every code Table.Harden narrows the SSB
// columns to at SF 0.1 and 0.3: for a sample of each narrowed column's
// code words, every flip pattern of weight up to the code's published
// minimum bit-flip weight, inside its |C| bits, must fail IsValid. The
// offset domains count among them: exactly the three date columns harden
// from a frame of reference, based at their smallest value, and their
// sampled words decode to the plain values.
func TestNarrowedCodesDetectEveryFlipUpToMinBFW(t *testing.T) {
	if testing.Short() {
		t.Skip("generates SF 0.1 and 0.3")
	}
	for _, sf := range []float64{0.1, 0.3} {
		data, err := Generate(sf, 1)
		if err != nil {
			t.Fatal(err)
		}
		narrowed := 0
		var offsets []string
		for _, tb := range data.Tables() {
			h, err := tb.Harden(storage.LargestCodeChooser)
			if err != nil {
				t.Fatal(err)
			}
			for _, hc := range h.Columns() {
				code := hc.Code()
				if code.DataBits() >= hc.DeclaredBits() {
					continue
				}
				narrowed++
				declared, err := storage.LargestCodeChooser(hc.DeclaredBits())
				if err != nil {
					t.Fatal(err)
				}
				bfw := an.GuaranteedBFW(code.A(), code.DataBits())
				if floor := an.GuaranteedBFW(declared.A(), declared.DataBits()); bfw < floor {
					t.Fatalf("sf %g %s.%s: %v guarantees min-bfw %d, the declared %v %d",
						sf, tb.Name(), hc.Name(), code, bfw, declared, floor)
				}
				for _, pos := range []int{0, hc.Len() / 3, hc.Len() - 1} {
					if n := undetectedFlips(code, hc.Get(pos), bfw); n != 0 {
						t.Fatalf("sf %g %s.%s row %d: %d flips of weight <= %d pass %v",
							sf, tb.Name(), hc.Name(), pos, n, bfw, code)
					}
				}
				if hc.Base() == 0 {
					continue
				}
				offsets = append(offsets, tb.Name()+"."+hc.Name())
				pc := tb.MustColumn(hc.Name())
				lo := pc.Value(0)
				for i := 1; i < pc.Len(); i++ {
					lo = min(lo, pc.Value(i))
				}
				if hc.Base() != lo {
					t.Fatalf("sf %g %s.%s: based at %d, smallest value %d", sf, tb.Name(), hc.Name(), hc.Base(), lo)
				}
				for _, pos := range []int{0, hc.Len() / 3, hc.Len() - 1} {
					if hc.Value(pos) != pc.Value(pos) {
						t.Fatalf("sf %g %s.%s row %d reads %d, want %d", sf, tb.Name(), hc.Name(), pos, hc.Value(pos), pc.Value(pos))
					}
				}
			}
		}
		if narrowed == 0 {
			t.Fatalf("sf %g: no column narrowed; the test is vacuous", sf)
		}
		sort.Strings(offsets)
		if want := []string{"date.d_datekey", "lineorder.lo_commitdate", "lineorder.lo_orderdate"}; !reflect.DeepEqual(offsets, want) {
			t.Fatalf("sf %g: hardened from a frame of reference: %v, want %v", sf, offsets, want)
		}
	}
}

// undetectedFlips counts the masks of weight 1..maxWeight within the
// code's |C| bits that turn the valid word cw into another valid word.
func undetectedFlips(code *an.Code, cw uint64, maxWeight int) int {
	n := 0
	var walk func(mask uint64, from uint, weight int)
	walk = func(mask uint64, from uint, weight int) {
		if weight > 0 && code.IsValid(cw^mask) {
			n++
		}
		if weight == maxWeight {
			return
		}
		for b := from; b < code.CodeBits(); b++ {
			walk(mask|1<<b, b+1, weight+1)
		}
	}
	walk(0, 0, 0)
	return n
}

// The enumeration finds the flips a weak code misses.
func TestUndetectedFlipsFindsWeakCodes(t *testing.T) {
	code := an.MustNew(3, 4) // A=3 guarantees only weight 1
	total := 0
	for d := uint64(0); d <= code.MaxData(); d++ {
		total += undetectedFlips(code, code.Encode(d), 2)
	}
	if total == 0 {
		t.Fatal("weight-2 flips under A=3 must sometimes pass")
	}
	if n := undetectedFlips(code, code.Encode(5), 1); n != 0 {
		t.Fatalf("%d single flips pass A=3", n)
	}
}
