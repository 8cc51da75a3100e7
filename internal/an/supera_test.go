package an

import (
	"math/bits"
	"testing"
)

func TestSuperATableWidths(t *testing.T) {
	// Table 3 reports each entry as A/|A|; spot-check that bit widths of
	// the embedded constants match the published |A| values.
	cases := []struct {
		dataBits uint
		minBFW   int
		a        uint64
		aBits    int
	}{
		{8, 2, 29, 5},
		{8, 3, 233, 8},
		{8, 4, 1939, 11},
		{8, 5, 13963, 14},
		{8, 6, 55831, 16},
		{16, 2, 61, 6},
		{16, 3, 463, 9},
		{16, 4, 7785, 13},
		{16, 5, 63877, 16},
		{24, 3, 981, 10},
		{24, 4, 15993, 14},
		{32, 2, 125, 7},
		{32, 3, 881, 10},
		{32, 4, 32417, 15},
		{1, 7, 255, 8},
		{2, 7, 13141, 14},
	}
	for _, tc := range cases {
		a, ok := SuperA(tc.dataBits, tc.minBFW)
		if !ok {
			t.Errorf("SuperA(%d,%d): missing", tc.dataBits, tc.minBFW)
			continue
		}
		if a != tc.a {
			t.Errorf("SuperA(%d,%d) = %d, want %d", tc.dataBits, tc.minBFW, a, tc.a)
		}
		if got := bits.Len64(a); got != tc.aBits {
			t.Errorf("SuperA(%d,%d): |A| = %d, want %d", tc.dataBits, tc.minBFW, got, tc.aBits)
		}
	}
}

func TestSuperAOutOfRange(t *testing.T) {
	if _, ok := SuperA(0, 1); ok {
		t.Error("dataBits 0 must have no entry")
	}
	if _, ok := SuperA(33, 1); ok {
		t.Error("dataBits 33 must have no entry")
	}
	if _, ok := SuperA(8, 0); ok {
		t.Error("minBFW 0 must have no entry")
	}
	if _, ok := SuperA(8, 8); ok {
		t.Error("minBFW 8 must have no entry")
	}
}

func TestForMinBFWFallsBackAcrossWidths(t *testing.T) {
	// |D| = 20 has no published row; the next wider one (24) supplies a
	// sound constant.
	c, err := ForMinBFW(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.A() != 981 {
		t.Fatalf("ForMinBFW(20,3) picked A=%d, want fallback 981 from |D|=24", c.A())
	}
	if c.DataBits() != 20 {
		t.Fatalf("code must keep the requested data width, got %d", c.DataBits())
	}
}

func TestForMinBFWErrors(t *testing.T) {
	if _, err := ForMinBFW(40, 2); err == nil {
		t.Error("want error for unsupported width")
	}
	if _, err := ForMinBFW(8, 0); err == nil {
		t.Error("want error for minBFW 0")
	}
	if _, err := ForMinBFW(32, 7); err == nil {
		t.Error("want error where the table has no value at any wider width")
	}
}

func TestLargestKnown(t *testing.T) {
	// Section 6.1 register mapping: restiny = 8-bit data in 16-bit words
	// allows |A| <= 8 -> A=233 (min bfw 3); resshort = 16-bit data in
	// 32-bit words allows |A| <= 16 -> A=63877 (min bfw 5).
	c, err := LargestKnown(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c.A() != 233 {
		t.Fatalf("LargestKnown(8,16) = %d, want 233", c.A())
	}
	c, err = LargestKnown(16, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c.A() != 63877 {
		t.Fatalf("LargestKnown(16,32) = %d, want 63877", c.A())
	}
	c, err = LargestKnown(32, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.A() != 32417 {
		t.Fatalf("LargestKnown(32,64) = %d, want 32417", c.A())
	}
	// Widening the budget for 8-bit data unlocks the stronger constants.
	c, err = LargestKnown(8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c.A() != 55831 {
		t.Fatalf("LargestKnown(8,32) = %d, want 55831", c.A())
	}
}

func TestGuaranteedBFW(t *testing.T) {
	if got := GuaranteedBFW(233, 8); got != 3 {
		t.Errorf("GuaranteedBFW(233,8) = %d, want 3", got)
	}
	if got := GuaranteedBFW(12345, 8); got != 0 {
		t.Errorf("GuaranteedBFW(unknown) = %d, want 0", got)
	}
	if got := GuaranteedBFW(3, 64); got != 0 {
		t.Errorf("GuaranteedBFW out of range = %d, want 0", got)
	}
}

func TestAllTableEntriesConstructible(t *testing.T) {
	for d := uint(1); d <= MaxTableDataBits; d++ {
		for w := 1; w <= MaxMinBFW; w++ {
			a, ok := SuperA(d, w)
			if !ok {
				continue
			}
			c, err := New(a, d)
			if err != nil {
				t.Errorf("table entry A=%d |D|=%d: %v", a, d, err)
				continue
			}
			// Round-trip a handful of values.
			for _, v := range []uint64{0, 1, c.MaxData() / 2, c.MaxData()} {
				if got, ok := c.Check(c.Encode(v)); !ok || got != v {
					t.Errorf("A=%d |D|=%d: round trip of %d failed", a, d, v)
				}
			}
		}
	}
}

func TestNextLargerClimbsTheLadder(t *testing.T) {
	// Starting from the weakest published 8-bit constant, NextLarger
	// must visit every stronger published rung in ascending |A| order
	// and stop at the top.
	cur := MustNew(3, 8)
	var seen []uint64
	for {
		next, ok := NextLarger(cur)
		if !ok {
			break
		}
		if next.DataBits() != 8 {
			t.Fatalf("NextLarger changed data width to %d", next.DataBits())
		}
		if next.ABits() <= cur.ABits() {
			t.Fatalf("NextLarger did not grow |A|: %d -> %d", cur.ABits(), next.ABits())
		}
		seen = append(seen, next.A())
		cur = next
	}
	want := []uint64{29, 233, 1939, 13963, 55831}
	if len(seen) != len(want) {
		t.Fatalf("ladder %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("ladder %v, want %v", seen, want)
		}
	}
	if _, ok := NextLarger(cur); ok {
		t.Fatal("top rung reported a larger constant")
	}
}

func TestNextLargerInvertsNextSmaller(t *testing.T) {
	for _, d := range []uint{8, 16, 32} {
		cur := MustNew(3, d)
		for {
			next, ok := NextLarger(cur)
			if !ok {
				break
			}
			back, ok := NextSmaller(next)
			if !ok || back.A() != cur.A() {
				t.Fatalf("d=%d: NextSmaller(NextLarger(%d)) = %v, want %d", d, cur.A(), back, cur.A())
			}
			cur = next
		}
	}
}

func TestNextLargerOutsideTable(t *testing.T) {
	if _, ok := NextLarger(MustNew(32417, 48)); ok {
		t.Fatal("48-bit data is outside the published tables")
	}
}

// A constant published for wider data keeps that width's guarantee on
// narrower data, and widths whose rows the paper elides use the next
// wider published row - the subset argument of ForMinBFW.
func TestNarrowerDataInheritsWiderRows(t *testing.T) {
	for _, c := range []struct {
		a    uint64
		bits uint
		want int
	}{
		{63877, 10, 5}, // published at |D| 14..16
		{15993, 18, 4}, // published at |D| 24
		{27425, 10, 5}, // the exact row still answers
		{32417, 33, 0}, // beyond the table
	} {
		if got := GuaranteedBFW(c.a, c.bits); got != c.want {
			t.Errorf("GuaranteedBFW(%d, %d) = %d, want %d", c.a, c.bits, got, c.want)
		}
	}
	// |D| = 20 has no published row: the ladder is row 24's.
	cur := MustNew(3, 20)
	up, ok := NextLarger(cur)
	if !ok || up.A() != 61 || up.DataBits() != 20 {
		t.Fatalf("NextLarger(%v) = %v, %v; want A=61 at |D|=20", cur, up, ok)
	}
	down, ok := NextSmaller(MustNew(15993, 20))
	if !ok || down.A() != 981 || down.DataBits() != 20 {
		t.Fatalf("NextSmaller(15993@20) = %v, %v; want A=981", down, ok)
	}
}
