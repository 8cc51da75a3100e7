package storage

import (
	"ahead/internal/an"
	"ahead/internal/bitpack"
	"ahead/internal/coding/residue"
)

// Whole-array kernels. Every bulk path of a column - harden, soften,
// re-encode, verify, Δ, residue fill and check, packed-mirror build,
// OR-reduction, row gather - runs one of the typed loops below, reached
// through a single dispatch (Column.bulk) that resolves the source and
// destination widths once per call. Nothing in here touches Get/setU64:
// the per-element accessors switch on the width for every value and stay
// reserved for point reads and UDI operations.

type bulkKind uint8

const (
	bulkMulMask      bulkKind = iota // dst[i] = (src[i] & pre) * mul & post
	bulkGather                       // dst[i] = src[rows[i]]
	bulkCheck                        // verify code words [start, end)
	bulkCheckDecode                  // verify [start, end) and soften into dst[start:end)
	bulkResidueFill                  // checks[i] = src[i] mod m
	bulkResidueCheck                 // compare [start, end) against checks
	bulkPack                         // append src to lanes
	bulkOr                           // one-element result: every word ORed
)

// bulkOp is one kernel invocation: the kind and the operands that kind
// reads. Range kinds return the offending global positions in ascending
// order.
type bulkOp struct {
	kind bulkKind

	pre, mul, post uint64 // bulkMulMask, evaluated in 64-bit registers

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
		mulMask(src, dst, op.pre, op.mul, op.post)
	case bulkGather:
		gatherRows(src, dst, op.rows)
	case bulkPack:
		bitpack.AppendSlice(op.lanes, src)
	case bulkOr:
		bad = []uint64{orAll(src)}
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
	case bulkResidueCheck:
		bad = residueCheck(op.res, src[op.start:op.end], op.checks[op.start:op.end])
	}
	// The range kernels report positions relative to their sub-slice.
	for i := range bad {
		bad[i] += uint64(op.start)
	}
	return bad
}

// mulMask is the one arithmetic shape behind Harden (pre = data mask,
// mul = A), Soften (mul = A^-1) and the widening Reencode (mul = A*):
// the product is taken in a 64-bit register and masked to the code
// width, exactly as the scalar Code methods compute it.
func mulMask[S, D an.Unsigned](src []S, dst []D, pre, mul, post uint64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = D((uint64(v) & pre) * mul & post)
	}
}

// orAll ORs every word, four independent accumulators deep: the bit
// length of the result is the bit length of the largest word, which is
// all hardening asks of a column's values.
func orAll[S an.Unsigned](src []S) uint64 {
	var a, b, c, d S
	i := 0
	for ; i+4 <= len(src); i += 4 {
		a |= src[i]
		b |= src[i+1]
		c |= src[i+2]
		d |= src[i+3]
	}
	for ; i < len(src); i++ {
		a |= src[i]
	}
	return uint64(a | b | c | d)
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
