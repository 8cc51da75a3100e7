package ops

import (
	"context"

	"ahead/internal/storage"
)

// Opts configures how the hardened operators behave, encoding the
// detection variant of Section 5.1:
//
//   - Unprotected / Early plans run on plain columns (Detect irrelevant).
//   - Late runs on hardened columns with Detect off: predicates are
//     evaluated directly on code words, errors surface only at the final
//     Δ before aggregation.
//   - Continuous runs with Detect on: every touched value is softened,
//     verified and recorded into the error log (Algorithm 1).
//
// HardenIDs additionally hardens materialized virtual IDs (selection
// vectors) with PosCode.
type Opts struct {
	Detect    bool
	HardenIDs bool
	Flavor    Flavor
	Log       *ErrorLog
	// NoPacked forces the wide kernels even on columns that carry a
	// packed lane mirror - the A/B switch of the fused-vs-packed bench
	// pairs and the packed differential tests. Results are identical
	// either way (the packed branch of pred.go); only throughput differs.
	NoPacked bool
	// Par runs the kernels morsel-parallel when non-nil (exec.Pool
	// implements it); nil runs each kernel as one morsel covering its
	// input. Parallel kernels give every morsel a private error log and
	// merge them in morsel order, so detected-error positions match the
	// one-morsel run exactly.
	Par Parallel
	// Ctx, when non-nil, bounds the execution: every operator entry
	// point checks it once, and the morsel runner checks it before
	// dispatching each morsel. A pooled run therefore stops scheduling
	// new work within one morsel boundary; a serial run observes
	// cancellation only at operator entry (and at stride boundaries
	// under StopOnDetect). Completed runs are unaffected - the
	// error-log merge stays byte-identical to serial.
	Ctx context.Context
	// StopOnDetect makes a scan stop at its first detecting stride: the
	// kernel finishes the StopStride rows in which it first logged a
	// detection, merges the log below that boundary, releases its
	// outputs and returns ErrStopped. A serial scan longer than one
	// stride is tiled into strides for it (see runMorsels). The
	// supervised first attempt of exec.RunWithRecovery sets it: a
	// detection dooms the attempt to a retry, so the rest of its work
	// is waste.
	StopOnDetect bool
	// Reencode is the ContinuousReencoding variant's output adaptation
	// inside the fused kernels (fused.go): with Detect set, the measure
	// staging vectors are re-hardened under the next-smaller A and
	// verified again where they are consumed. The materializing operators ignore it; their
	// plans re-encode each output vector (exec.Query.Reencode).
	Reencode bool

	// lease, when non-nil, keeps operator outputs in the arena for the
	// query's lifetime (KeepIn, scratch.go).
	lease *Lease
}

// ctxErr reports the cancellation state of the query's context, nil when
// no context is attached or it is still live.
func (o *Opts) ctxErr() error {
	if o == nil || o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// posMul returns the factor applied to emitted positions.
func (o *Opts) posMul() uint64 {
	if o != nil && o.HardenIDs {
		return PosCode.A()
	}
	return 1
}

func (o *Opts) flavor() Flavor {
	if o == nil {
		return Scalar
	}
	return o.Flavor
}

func (o *Opts) detect() bool { return o != nil && o.Detect }

func (o *Opts) reencode() bool { return o != nil && o.Detect && o.Reencode }

func (o *Opts) log() *ErrorLog {
	if o == nil {
		return nil
	}
	return o.Log
}

// Filter scans a whole column and returns the positions whose value lies
// in the inclusive plain-domain range [lo, hi]. Every comparison predicate
// of the SSB workload reduces to such a range (equality is lo == hi). The
// predicate is normalised once per call (fusedPred) and scanned per
// morsel into a borrowed scratch buffer whose ownership transfers to the
// entry point (see scratch.go).
func Filter(col *storage.Column, lo, hi uint64, o *Opts) (*Sel, error) {
	out := &Sel{Hardened: o != nil && o.HardenIDs}
	if lo > hi {
		return out, nil
	}
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	f := makeFusedPred(RangePred{Col: col, Lo: lo, Hi: hi}, o)
	if f.empty {
		return out, nil
	}
	parts, err := runMorsels(o.par(col.Len()), col.Len(), o, o.log(), dropU64, func(log *ErrorLog, start, end int) (*[]uint64, error) {
		return f.scanMorsel(o, log, start, end), nil
	})
	if err != nil {
		return nil, err
	}
	out.Pos = o.outU64(parts...)
	return out, nil
}

// scanMorsel is the morsel kernel of Filter: it scans rows [start, end)
// into a borrowed scratch buffer whose ownership transfers to the caller.
func (f *fusedPred) scanMorsel(o *Opts, log *ErrorLog, start, end int) *[]uint64 {
	buf := borrowU64(end - start)
	*buf = f.scan(start, end, o.posMul(), o.flavor(), log, *buf)
	return buf
}

// FilterSel refines an existing selection: it keeps the positions of sel
// whose column value lies in [lo, hi]. Hardened selection vectors pass
// through in their hardened form, so no re-encoding is needed.
func FilterSel(col *storage.Column, lo, hi uint64, sel *Sel, o *Opts) (*Sel, error) {
	out := &Sel{Hardened: sel.Hardened}
	if lo > hi {
		return out, nil
	}
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	f := makeFusedPred(RangePred{Col: col, Lo: lo, Hi: hi}, o)
	if f.empty {
		return out, nil
	}
	parts, err := runMorsels(o.par(sel.Len()), sel.Len(), o, o.log(), dropU64, func(log *ErrorLog, start, end int) (*[]uint64, error) {
		return f.filterSelRange(sel, log, start, end), nil
	})
	if err != nil {
		return nil, err
	}
	out.Pos = o.outU64(parts...)
	return out, nil
}

// filterSelRange is the morsel kernel of FilterSel: it refines the
// selection entries with global indices [start, end), emitting into a
// borrowed scratch buffer whose ownership transfers to the caller. It
// walks the selection itself - hardened IDs verify through Sel.At - and
// takes only its comparison operands from the predicate.
func (f *fusedPred) filterSelRange(sel *Sel, log *ErrorLog, start, end int) *[]uint64 {
	buf := borrowU64(end - start)
	out := (*buf)[:0]
	for i := start; i < end; i++ {
		pos, ok := sel.At(i, log)
		if !ok {
			continue
		}
		v := f.col.Get(int(pos))
		if f.checked {
			if v = v * f.inv & f.mask; v > f.dmax {
				if log != nil {
					log.Record(f.col.Name(), pos)
				}
				continue
			}
		}
		if v-f.lo <= f.span {
			out = append(out, sel.Pos[i])
		}
	}
	*buf = out
	return buf
}
