package an

import (
	"fmt"
	"math/bits"
)

// Super-A selection (Section 4.2, Table 1 and Table 3).
//
// For every data width |D| and desired guaranteed minimum bit-flip weight
// (min bfw), the paper publishes the smallest "super A": the constant with
// the highest minimum Hamming distance, the lowest |A| and the lowest first
// non-zero histogram value among all candidates. Determining them is a
// brute-force computation over the code's distance distribution (the paper
// spent 2700 GPU hours); this package embeds the published table as ground
// truth and internal/sdc re-derives the entries that are exactly
// computable on CPU-scale budgets.

// MaxTableDataBits is the largest data width covered by the embedded table.
const MaxTableDataBits = 32

// MaxMinBFW is the largest guaranteed minimum bit-flip weight in the table.
const MaxMinBFW = 7

// superATable[d][w] is the smallest super A for data width d (1-based) and
// minimum bit-flip weight w+1; zero means the paper lists no value (the
// computation was still outstanding, "tbc"). Source: Table 3 of the paper,
// with the |D| ∈ {19..27} rows - elided from the printed table - filled
// from Table 1 where available.
var superATable = [MaxTableDataBits + 1][MaxMinBFW]uint64{
	1:  {3, 7, 15, 31, 63, 127, 255},
	2:  {3, 13, 53, 213, 853, 3285, 13141},
	3:  {3, 29, 45, 467, 1837, 7349, 23733},
	4:  {3, 27, 89, 933, 6777, 31385, 0},
	5:  {3, 29, 117, 933, 7085, 31373, 0},
	6:  {3, 29, 233, 1899, 7837, 62739, 0},
	7:  {3, 29, 217, 1803, 13963, 55831, 0},
	8:  {3, 29, 233, 1939, 13963, 55831, 0},
	9:  {3, 29, 185, 1939, 15717, 55831, 0},
	10: {3, 61, 185, 3739, 27425, 0, 0},
	11: {3, 61, 451, 3739, 27425, 0, 0},
	12: {3, 61, 463, 3737, 29925, 0, 0},
	13: {3, 61, 463, 3349, 27825, 0, 0},
	14: {3, 61, 463, 6717, 63877, 0, 0},
	15: {3, 61, 463, 7785, 63877, 0, 0},
	16: {3, 61, 463, 7785, 63877, 0, 0},
	17: {3, 61, 393, 7785, 63859, 0, 0},
	18: {3, 61, 947, 7785, 63859, 0, 0},
	// |D| 19..23: rows elided in the printed Table 3; no published values.
	// ForMinBFW falls back to the next wider published row (see below).
	24: {3, 61, 981, 15993, 0, 0, 0}, // from Table 1
	28: {3, 111, 951, 29685, 0, 0, 0},
	29: {3, 111, 835, 29685, 0, 0, 0},
	30: {3, 125, 835, 31693, 0, 0, 0},
	31: {3, 125, 881, 32211, 0, 0, 0},
	32: {3, 125, 881, 32417, 0, 0, 0},
}

// SuperA returns the smallest published super A for the given data width
// and guaranteed minimum bit-flip weight, and whether the table has an
// entry. It does not fall back across widths; use ForMinBFW for that.
func SuperA(dataBits uint, minBFW int) (uint64, bool) {
	if dataBits == 0 || dataBits > MaxTableDataBits || minBFW < 1 || minBFW > MaxMinBFW {
		return 0, false
	}
	a := superATable[dataBits][minBFW-1]
	return a, a != 0
}

// ForMinBFW returns an AN code over dataBits-wide data that is guaranteed
// to detect all bit flips of weight up to minBFW.
//
// When the table has no entry for the exact width, the entry of the next
// wider published width is used. This is sound: the valid code words of a
// narrower data domain are a subset of those of a wider one (data words
// with leading zero bits), so the minimum Hamming distance - and with it
// the guaranteed detection weight - can only grow when the domain shrinks.
// The returned code may then just not be the *smallest* possible one.
func ForMinBFW(dataBits uint, minBFW int) (*Code, error) {
	if dataBits == 0 || dataBits > MaxTableDataBits {
		return nil, fmt.Errorf("an: no super-A data for %d-bit data", dataBits)
	}
	if minBFW < 1 || minBFW > MaxMinBFW {
		return nil, fmt.Errorf("an: minimum bit-flip weight must be in [1,%d], got %d", MaxMinBFW, minBFW)
	}
	for d := dataBits; d <= MaxTableDataBits; d++ {
		if a := superATable[d][minBFW-1]; a != 0 {
			return New(a, dataBits)
		}
	}
	return nil, fmt.Errorf("an: no published super A detects %d-bit flips on %d-bit data", minBFW, dataBits)
}

// LargestKnown returns the AN code using the largest published super A for
// the width whose code words still fit within maxCodeBits, i.e. the
// strongest guaranteed detection available inside the next native register.
// The end-to-end evaluation (Section 6.1) maps each hardened type onto the
// next native integer width - restiny to 16 bits, resshort to 32, resint
// and resbig to 64 - and hardens every column this way.
func LargestKnown(dataBits, maxCodeBits uint) (*Code, error) {
	if dataBits == 0 || dataBits > MaxTableDataBits {
		return nil, fmt.Errorf("an: no super-A data for %d-bit data", dataBits)
	}
	if maxCodeBits > MaxCodeBits {
		maxCodeBits = MaxCodeBits
	}
	for w := MaxMinBFW; w >= 1; w-- {
		for d := dataBits; d <= MaxTableDataBits; d++ {
			a := superATable[d][w-1]
			if a == 0 {
				continue
			}
			if c, err := New(a, dataBits); err == nil && c.CodeBits() <= maxCodeBits {
				return c, nil
			}
			break // published entry too wide; try a weaker guarantee
		}
	}
	return nil, fmt.Errorf("an: no super A for %d-bit data fits %d-bit code words", dataBits, maxCodeBits)
}

// NextSmaller returns the published super A of the same data width with
// the largest |A| strictly below the current code's |A| - the "decrease
// the bit width of A by one per operator" reencoding policy of Section
// 6.2. ok is false when no smaller constant is published (e.g. the width
// is outside the table, or the code already uses A=3). A width whose row
// the paper elides uses the next wider published row, as ForMinBFW does.
func NextSmaller(cur *Code) (*Code, bool) {
	d := cur.DataBits()
	row, ok := publishedRow(d)
	if !ok {
		return nil, false
	}
	var best uint64
	var bestBits uint
	for w := 1; w <= MaxMinBFW; w++ {
		a := superATable[row][w-1]
		// Only the winner is built: the width test is New's own bound.
		aBits := uint(bits.Len64(a))
		if a == 0 || d+aBits > MaxCodeBits {
			continue
		}
		if aBits < cur.ABits() && aBits > bestBits {
			best, bestBits = a, aBits
		}
	}
	if best == 0 {
		return nil, false
	}
	c, err := New(best, d)
	if err != nil {
		return nil, false
	}
	return c, true
}

// NextLarger returns the published super A of the same data width with
// the smallest |A| strictly above the current code's |A| that still fits
// MaxCodeBits - the escalation rung an adaptive controller climbs when a
// column's observed error rate pushes its silent-corruption hazard over
// budget. ok is false when no stronger constant is published. Elided
// rows fall back as in NextSmaller.
func NextLarger(cur *Code) (*Code, bool) {
	d := cur.DataBits()
	row, ok := publishedRow(d)
	if !ok {
		return nil, false
	}
	var best uint64
	var bestBits uint
	for w := 1; w <= MaxMinBFW; w++ {
		a := superATable[row][w-1]
		if a == 0 {
			continue
		}
		c, err := New(a, d)
		if err != nil {
			continue
		}
		if c.ABits() > cur.ABits() && (best == 0 || c.ABits() < bestBits) {
			best, bestBits = a, c.ABits()
		}
	}
	if best == 0 {
		return nil, false
	}
	c, err := New(best, d)
	if err != nil {
		return nil, false
	}
	return c, true
}

// publishedRow returns the narrowest data width at least dataBits whose
// table row the paper publishes: dataBits itself except for the elided
// rows, which defer to the next wider one (sound by the subset argument
// of ForMinBFW).
func publishedRow(dataBits uint) (uint, bool) {
	if dataBits == 0 {
		return 0, false
	}
	for d := dataBits; d <= MaxTableDataBits; d++ {
		if superATable[d][0] != 0 {
			return d, true
		}
	}
	return 0, false
}

// GuaranteedBFW returns the guaranteed minimum bit-flip weight the
// published tables attribute to constant a at the given data width, or 0 if
// a is not a published super A for that width or any wider one. A
// constant published for wider data keeps its guarantee on narrower data
// by the subset argument of ForMinBFW.
func GuaranteedBFW(a uint64, dataBits uint) int {
	if dataBits == 0 || dataBits > MaxTableDataBits {
		return 0
	}
	for w := MaxMinBFW; w >= 1; w-- {
		for d := dataBits; d <= MaxTableDataBits; d++ {
			if superATable[d][w-1] == a {
				return w
			}
		}
	}
	return 0
}
