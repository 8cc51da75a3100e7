package ops

import (
	"ahead/internal/an"
	"ahead/internal/bitpack"
	"ahead/internal/storage"
)

// RangePred is an inclusive plain-domain range predicate on one column,
// the normal form of every SSB comparison (equality is lo == hi).
type RangePred struct {
	Col    *storage.Column
	Lo, Hi uint64
}

// fusedPred is the package's one range-predicate form: a RangePred with
// the comparison operands normalised once per operator call for the
// column's representation, evaluated by Filter (scan per morsel),
// FilterSel (operands only - it walks a selection) and the fused block
// pipelines (scan, refineList).
//
// Three representations, one rule each:
//
//   - plain values: compared as stored; the domain is the storage width.
//   - hardened, no detection (Late): raw code words against hardened
//     bounds - the multiplication's monotony transfers the comparison
//     (Eq. 6); the domain is the code's MaxData.
//   - hardened with detection (Continuous): every value is softened with
//     the inverse and bounds-checked first (Algorithm 1, Eq. 12/13), then
//     compared decoded; the domain is again MaxData.
//
// A lower bound beyond the domain selects nothing - clamping it down
// would select the domain maximum itself, and encoding it would wrap
// past the comparable code range - and an upper bound beyond it
// saturates. A column stored from a frame of reference (Column.Base)
// has both bounds moved down by the base first, so its words compare in
// their own domain; a range ending below the base selects nothing.
// Narrow hardened columns carrying a packed lane mirror (DESIGN.md
// section 5g) scan the mirror instead of the wide array: SWAR
// over encoded bounds for Late, per-lane Algorithm 1 for Continuous,
// emitting exactly the positions, error-log entries and entry order of
// the wide kernels, so the choice changes throughput and nothing else.
type fusedPred struct {
	col     *storage.Column
	lanes   *bitpack.Lanes // packed mirror for scan, or nil
	checked bool           // soften, verify, compare decoded
	lo      uint64         // comparison base (encoded for the raw compare)
	span    uint64         // hi-lo in the comparison domain
	inv     uint64
	mask    uint64
	dmax    uint64
	empty   bool // statically unsatisfiable range
}

func makeFusedPred(p RangePred, o *Opts) fusedPred {
	code := p.Col.Code()
	f := fusedPred{col: p.Col, lanes: o.packedLanes(p.Col), checked: code != nil && o.detect()}
	lo, hi := p.Lo, p.Hi
	if base := p.Col.Base(); base != 0 {
		// Frame-of-reference words compare in their own domain: the
		// bounds move down by the base (Eq. 6 then encodes (lo-base)·A).
		if hi < base {
			f.empty = true
			return f
		}
		lo, hi = max(lo, base)-base, hi-base
	}
	max := ^uint64(0) >> (64 - 8*uint(p.Col.Width()))
	if code != nil {
		max = code.MaxData()
	}
	if lo > hi || lo > max {
		f.empty = true
		return f
	}
	if hi > max {
		hi = max
	}
	switch {
	case f.checked:
		f.inv, f.mask, f.dmax = code.AInv(), code.CodeMask(), max
	case code != nil:
		lo, hi = code.Encode(lo), code.Encode(hi)
	}
	f.lo, f.span = lo, hi-lo
	return f
}

// packedLanes returns the packed mirror the scan kernels may read for
// col, or nil when the column has none, the mirror is stale, or the
// query opted out.
func (o *Opts) packedLanes(col *storage.Column) *bitpack.Lanes {
	if o != nil && o.NoPacked {
		return nil
	}
	l := col.Packed()
	if l == nil || l.Len() != col.Len() {
		return nil
	}
	return l
}

// scan emits pos*posMul for every row in [start, end) passing the
// predicate into buf, whose capacity must cover end-start entries (the
// scratch arena guarantees it), so no flavor ever allocates. Corruptions
// the checked forms find are logged at their global row position.
func (f *fusedPred) scan(start, end int, posMul uint64, flavor Flavor, log *ErrorLog, buf []uint64) []uint64 {
	c := f.col
	if f.lanes != nil {
		if !f.checked {
			return f.lanes.ScanRangeRawInto(f.lo, f.lo+f.span, start, end, posMul, buf[:0])
		}
		// The error slice is scratch too: ScanRangeCheckedInto emits
		// plain global row indices, re-recorded here in row order - the
		// entries, in the order, the wide checked scan writes.
		ebuf := borrowU64(end - start)
		out, errs := f.lanes.ScanRangeCheckedInto(f.lo, f.lo+f.span, start, end, posMul, buf[:0], (*ebuf)[:0])
		if log != nil {
			for _, e := range errs {
				log.Record(c.Name(), e)
			}
		}
		*ebuf = errs
		releaseU64(ebuf)
		return out
	}
	switch c.Width() {
	case 1:
		return scanTyped(c.U8()[start:end], f, uint64(start), posMul, flavor, log, buf)
	case 2:
		return scanTyped(c.U16()[start:end], f, uint64(start), posMul, flavor, log, buf)
	case 4:
		return scanTyped(c.U32()[start:end], f, uint64(start), posMul, flavor, log, buf)
	default:
		return scanTyped(c.U64()[start:end], f, uint64(start), posMul, flavor, log, buf)
	}
}

// refineList keeps the positions of pos whose value passes the
// predicate, compacting in place (the FilterSel of the fused pipeline).
func (f *fusedPred) refineList(log *ErrorLog, pos []uint64) []uint64 {
	c := f.col
	switch c.Width() {
	case 1:
		return refineListTyped(c.U8(), f, log, pos)
	case 2:
		return refineListTyped(c.U16(), f, log, pos)
	case 4:
		return refineListTyped(c.U32(), f, log, pos)
	default:
		return refineListTyped(c.U64(), f, log, pos)
	}
}

// scanTyped is the width-specialized scan loop; base is the global row of
// data[0]. The Blocked flavor uses predicated emission - the append
// index advances by a comparison result instead of a taken branch -
// mirroring the compare+movemask structure of the SIMD prototype. The
// normalised operands fit the storage width, so narrowing them is exact.
func scanTyped[T an.Unsigned](data []T, f *fusedPred, base, posMul uint64, flavor Flavor, log *ErrorLog, buf []uint64) []uint64 {
	lo, span := T(f.lo), T(f.span)
	if !f.checked {
		if flavor == Blocked {
			out := buf[:len(data)]
			n := 0
			for i, v := range data {
				out[n] = (base + uint64(i)) * posMul
				if v-lo <= span {
					n++
				}
			}
			return out[:n]
		}
		out := buf[:0]
		for i, v := range data {
			if v-lo <= span {
				out = append(out, (base+uint64(i))*posMul)
			}
		}
		return out
	}
	inv, mask, dmax := T(f.inv), T(f.mask), T(f.dmax)
	if flavor == Blocked {
		out := buf[:len(data)]
		n := 0
		for i, v := range data {
			d := v * inv & mask
			if d > dmax {
				if log != nil {
					log.Record(f.col.Name(), base+uint64(i))
				}
				continue
			}
			out[n] = (base + uint64(i)) * posMul
			if d-lo <= span {
				n++
			}
		}
		return out[:n]
	}
	out := buf[:0]
	for i, v := range data {
		d := v * inv & mask
		if d > dmax {
			if log != nil {
				log.Record(f.col.Name(), base+uint64(i))
			}
			continue
		}
		if d-lo <= span {
			out = append(out, (base+uint64(i))*posMul)
		}
	}
	return out
}

// refineListTyped compacts pos in place with predicated emission, as
// scanTyped's Blocked flavor does: every position is written and the
// write index advances by the comparison result, so a predicate passing
// about half its rows (Q1.1's quantity behind its discount) costs no
// mispredicted branch per row.
func refineListTyped[T an.Unsigned](data []T, f *fusedPred, log *ErrorLog, pos []uint64) []uint64 {
	lo, span := T(f.lo), T(f.span)
	n := 0
	if !f.checked {
		for _, p := range pos {
			pos[n] = p
			if data[p]-lo <= span {
				n++
			}
		}
		return pos[:n]
	}
	inv, mask, dmax := T(f.inv), T(f.mask), T(f.dmax)
	for _, p := range pos {
		d := data[p] * inv & mask
		if d > dmax {
			if log != nil {
				log.Record(f.col.Name(), p)
			}
			continue
		}
		pos[n] = p
		if d-lo <= span {
			n++
		}
	}
	return pos[:n]
}
