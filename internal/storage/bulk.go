package storage

import (
	"ahead/internal/an"
	"ahead/internal/bitpack"
	"ahead/internal/coding/residue"
)

// Whole-array kernels. Every bulk path of a column - harden, soften,
// re-encode, verify, Δ, residue fill and check, packed-mirror build,
// min/max reduction, row gather - runs one of the typed loops below,
// reached through a single dispatch (Column.bulk) that resolves the
// source and destination widths once per call. Nothing in here touches
// Get/setU64: the per-element accessors switch on the width for every
// value and stay reserved for point reads and UDI operations.

type bulkKind uint8

const (
	bulkMulMask      bulkKind = iota // dst[i] = ((src[i]-sub) & pre) * mul & post + add
	bulkGather                       // dst[i] = src[rows[i]]
	bulkCheck                        // verify code words [start, end)
	bulkCheckDecode                  // verify [start, end) and soften into dst[start:end), plus add
	bulkResidueFill                  // checks[i] = src[i] mod m
	bulkResidueCheck                 // compare [start, end) against checks
	bulkPack                         // append src to lanes
	bulkMinMax                       // two-element result: the smallest and the largest word
)

// bulkOp is one kernel invocation: the kind and the operands that kind
// reads. Range kinds return the offending global positions in ascending
// order.
type bulkOp struct {
	kind bulkKind

	pre, mul, post uint64 // bulkMulMask, evaluated in 64-bit registers
	sub, add       uint64 // bulkMulMask; add also bulkCheckDecode: a frame of reference

	rows []int // bulkGather

	start, end int      // range kinds
	code       *an.Code // bulkCheck, bulkCheckDecode
	blocked    bool     // bulkCheckDecode: the query's kernel flavor

	res    *residue.Code // residue kinds
	checks []uint16

	lanes *bitpack.Lanes // bulkPack
}

// bulk runs op over c's physical array and, for the two-array kinds,
// dst's. This is the only place a bulk path switches on a column width.
func (c *Column) bulk(dst *Column, op bulkOp) []uint64 {
	switch c.width {
	case 1:
		return bulkInto(c.u8, dst, op)
	case 2:
		return bulkInto(c.u16, dst, op)
	case 4:
		return bulkInto(c.u32, dst, op)
	default:
		return bulkInto(c.u64, dst, op)
	}
}

func bulkInto[S an.Unsigned](src []S, dst *Column, op bulkOp) []uint64 {
	if dst == nil {
		return bulkRun(src, []S(nil), op)
	}
	switch dst.width {
	case 1:
		return bulkRun(src, dst.u8, op)
	case 2:
		return bulkRun(src, dst.u16, op)
	case 4:
		return bulkRun(src, dst.u32, op)
	default:
		return bulkRun(src, dst.u64, op)
	}
}

func bulkRun[S, D an.Unsigned](src []S, dst []D, op bulkOp) []uint64 {
	var bad []uint64
	switch op.kind {
	case bulkMulMask:
		mulMask(src, dst, op)
	case bulkGather:
		gatherRows(src, dst, op.rows)
	case bulkPack:
		bitpack.AppendSlice(op.lanes, src)
	case bulkMinMax:
		lo, hi := minMax(src)
		bad = []uint64{lo, hi}
	case bulkResidueFill:
		residueFill(op.res, src, op.checks)
	case bulkCheck:
		bad = an.CheckSliceBlocked(op.code, src[op.start:op.end], nil)
	case bulkCheckDecode:
		if op.blocked {
			bad = an.CheckDecodeSliceBlocked(op.code, src[op.start:op.end], dst[op.start:op.end], nil)
		} else {
			bad = an.CheckDecodeSlice(op.code, src[op.start:op.end], dst[op.start:op.end], nil)
		}
		if op.add != 0 {
			addAll(dst[op.start:op.end], op.add)
		}
	case bulkResidueCheck:
		bad = residueCheck(op.res, src[op.start:op.end], op.checks[op.start:op.end])
	}
	// The range kernels report positions relative to their sub-slice.
	for i := range bad {
		bad[i] += uint64(op.start)
	}
	return bad
}

// mulMask is the one arithmetic shape behind Harden (sub = base, pre =
// data mask, mul = A), Soften (mul = A^-1, add = base) and the widening
// Reencode (mul = A*): the product is taken in a 64-bit register and
// masked to the code width, exactly as the scalar Code methods compute
// it.
func mulMask[S, D an.Unsigned](src []S, dst []D, op bulkOp) {
	sub, pre, mul, post, add := op.sub, op.pre, op.mul, op.post, op.add
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = D(((uint64(v)-sub)&pre)*mul&post + add)
	}
}

// addAll adds a frame of reference back to softened words.
func addAll[D an.Unsigned](dst []D, add uint64) {
	for i := range dst {
		dst[i] += D(add)
	}
}

// minMax returns the smallest and the largest word: the span a
// frame-of-reference hardening sizes |D| from, and the largest value
// every hardening checks. Once the first values are in, a new minimum or
// maximum is rare, so the two branches predict well on any data.
func minMax[S an.Unsigned](src []S) (uint64, uint64) {
	if len(src) == 0 {
		return 0, 0
	}
	lo, hi := src[0], src[0]
	for _, v := range src {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return uint64(lo), uint64(hi)
}

func gatherRows[S, D an.Unsigned](src []S, dst []D, rows []int) {
	dst = dst[:len(rows)]
	for i, r := range rows {
		dst[i] = D(src[r])
	}
}

func residueFill[S an.Unsigned](code *residue.Code, src []S, checks []uint16) {
	rc := *code // modulus and shift in registers for the loop
	checks = checks[:len(src)]
	for i, v := range src {
		checks[i] = uint16(rc.Residue(uint64(v)))
	}
}

func residueCheck[S an.Unsigned](code *residue.Code, src []S, checks []uint16) []uint64 {
	rc := *code
	var bad []uint64
	checks = checks[:len(src)]
	for i, v := range src {
		if rc.Residue(uint64(v)) != uint64(checks[i]) {
			bad = append(bad, uint64(i))
		}
	}
	return bad
}
