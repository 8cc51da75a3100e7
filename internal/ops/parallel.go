package ops

import (
	"errors"
	"sync/atomic"
)

// Parallel is the contract between the kernels and the morsel scheduler
// (internal/exec.Pool implements it). A runner splits [0, total) into
// dense fixed-size morsels - morsel m covers
// [m*MorselSize, min((m+1)*MorselSize, total)) - and runs fn once per
// morsel, possibly concurrently, returning only when every morsel has
// finished. Kernels collect per-morsel partial states into a slice
// indexed by morsel and merge them in morsel order, which restores the
// serial left-to-right row order for every order-sensitive output:
// emitted positions, value vectors, and - the detection-critical
// invariant - the error log (see runMorsels).
type Parallel interface {
	// Workers returns the worker count; 1 means serial.
	Workers() int
	// MorselSize returns the values-per-morsel granularity; 0 means one
	// morsel covers the whole input.
	MorselSize() int
	// ForEach runs fn per morsel of [0, total) and waits for all.
	ForEach(total int, fn func(morsel, start, end int))
}

// par returns the runner for n input rows, nil Opts included, so every
// kernel entry runs through runMorsels exactly once. The attached runner
// is used when morsel-parallelism is worthwhile: it has at least two
// workers and the input spans more than one morsel (a single morsel
// gains nothing). Under StopOnDetect a runner must also tile the input
// along stride boundaries (its morsel size divides StopStride); a scan
// longer than one stride that no such runner takes is tiled into
// strides serially, so every scan that can stop stops at the same row.
// Any other scan is one morsel covering the whole input, whose single
// part each kernel's merge takes as it is.
func (o *Opts) par(n int) Parallel {
	if o == nil {
		return whole{}
	}
	if p := o.Par; p != nil && p.Workers() >= 2 && p.MorselSize() > 0 && n > p.MorselSize() &&
		(!o.StopOnDetect || StopStride%p.MorselSize() == 0) {
		return p
	}
	if o.StopOnDetect && n > StopStride {
		return strides{}
	}
	return whole{}
}

// whole is the runner of an untiled scan: one morsel covering the whole
// input, an empty one included.
type whole struct{}

func (whole) Workers() int    { return 1 }
func (whole) MorselSize() int { return 0 }
func (whole) ForEach(total int, fn func(m, start, end int)) {
	fn(0, 0, total)
}

// StopStride is the row granularity of StopOnDetect: four default
// morsels (exec.DefaultMorselSize is 64 Ki rows). The stop point is a
// multiple of it whatever runner executes the scan, so a serial run, a
// pool at the default morsel size and a pool of 8-row morsels stop at
// the same row and merge the same log. Tiling a serial scan costs a
// supervised first attempt that does not detect 2-4 % at this stride
// and 5-7 % at 64 Ki (DESIGN.md §5d).
const StopStride = 256 * 1024

// ErrStopped is what a StopOnDetect scan returns once it has finished
// its first detecting stride: the log holds every detection below the
// stop point, and the kernel's outputs are released.
var ErrStopped = errors.New("ops: scan stopped at its first detecting stride")

// strides is the in-order serial runner of StopOnDetect: one morsel per
// stride.
type strides struct{}

func (strides) Workers() int    { return 1 }
func (strides) MorselSize() int { return StopStride }
func (strides) ForEach(total int, fn func(m, start, end int)) {
	for m, start := 0, 0; start < total; m, start = m+1, start+StopStride {
		fn(m, start, min(start+StopStride, total))
	}
}

// morselCount returns the number of morsels a runner splits total into.
func morselCount(p Parallel, total int) int {
	ms := p.MorselSize()
	if ms <= 0 || total <= 0 {
		return 1
	}
	return (total + ms - 1) / ms
}

// runMorsels runs fn once per morsel of [0, total), handing every morsel
// a private error log, and merges the logs into dst in morsel order. A
// single morsel runs on the caller and logs straight into dst.
//
// This is the error-vector merge invariant the parallel engine rests on:
// each kernel records corruptions with *global* row positions (fn
// receives the global [start, end) bounds), and because morsels tile the
// input left to right, concatenating the per-morsel logs by morsel index
// reproduces exactly the entry sequence of one morsel covering the whole
// input. Continuous and ContinuousReencoding therefore report
// identical error positions - and identical entry order - no matter how
// many workers executed the scan. On a morsel error the logs up to and
// including the failing morsel are merged (mirroring how far one
// whole-input morsel would have come) and the first error in morsel
// order is returned.
//
// Under StopOnDetect (with a log to stop on) the scan ends at limit,
// the end of the lowest stride in which a morsel logged a detection:
// morsels starting at or beyond it are not run, those below it always
// are, so the merged log - every morsel below the limit - is the same
// for every runner. The scan then returns ErrStopped, unless an earlier
// morsel failed or the limit lies past the end of the input.
//
// When o carries a context, it is checked before each morsel kernel
// runs: once cancelled, remaining morsels return the context error
// without touching data, so an aborted run stops within one morsel
// boundary. On any error return the outputs of morsels that DID
// complete are handed to drop (non-nil for kernels whose outputs hold
// borrowed scratch), keeping the arena balanced under cancellation -
// the shutdown-ordering guarantee the serving layer's drain relies on.
func runMorsels[T any](p Parallel, total int, o *Opts, dst *ErrorLog, drop func(T), fn func(log *ErrorLog, start, end int) (T, error)) ([]T, error) {
	count := morselCount(p, total)
	if count == 1 {
		// A whole-input morsel pays no bookkeeping. No scan that can
		// stop gets here: par hands each to a tiling runner.
		if err := o.ctxErr(); err != nil {
			return nil, err
		}
		out, err := fn(dst, 0, total)
		if err != nil {
			return nil, err
		}
		return []T{out}, nil
	}
	outs := make([]T, count)
	logs := make([]*ErrorLog, count)
	errs := make([]error, count)
	var limit *atomic.Int64 // nil unless the scan can stop
	if o.StopOnDetect && dst != nil && total > StopStride {
		limit = new(atomic.Int64)
		limit.Store(int64(total))
	}
	p.ForEach(total, func(m, start, end int) {
		if limit != nil && int64(start) >= limit.Load() {
			return
		}
		if err := o.ctxErr(); err != nil {
			errs[m] = err
			return
		}
		l := borrowLog()
		logs[m] = l
		outs[m], errs[m] = fn(l, start, end)
		if limit != nil && l.Count() > 0 {
			end := int64(start/StopStride+1) * StopStride
			for cur := limit.Load(); end < cur; cur = limit.Load() {
				if limit.CompareAndSwap(cur, end) {
					break
				}
			}
		}
	})
	defer func() {
		// Merge copies the entries, so the pooled logs can go back
		// immediately; dst itself is the caller's and never pooled.
		for _, l := range logs {
			releaseLog(l)
		}
	}()
	// abandon merges the logs of morsels [0, merged), drops every
	// completed output and returns err.
	abandon := func(merged int, err error) ([]T, error) {
		if dst != nil {
			for _, l := range logs[:merged] {
				dst.Merge(l)
			}
		}
		if drop != nil {
			for i, e := range errs {
				if e == nil && logs[i] != nil {
					drop(outs[i])
				}
			}
		}
		return nil, err
	}
	ran := count
	if limit != nil {
		ran = morselCount(p, int(limit.Load())) // morsels starting below the limit
	}
	for m, err := range errs[:ran] {
		if err != nil {
			return abandon(m+1, err)
		}
	}
	if ran < count {
		return abandon(ran, ErrStopped)
	}
	if dst != nil {
		for _, l := range logs {
			dst.Merge(l)
		}
	}
	return outs, nil
}

// dropU64 releases one morsel's borrowed uint64 output buffer - the drop
// callback of the position/value-emitting kernels.
func dropU64(p *[]uint64) { releaseU64(p) }
