package ops

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Scratch memory for the kernel hot path (DESIGN.md section 5e).
//
// Every morsel of every scan used to allocate its own position buffer and
// every parallel aggregation its own per-morsel partial array - allocator
// rent the paper's C++ prototype never paid, and rent that scales with
// worker count under the morsel pool. The arena below recycles those
// buffers through size-classed sync.Pools so the steady-state per-morsel
// allocation count is zero. Two element types share one implementation:
// uint64 (positions, bitmaps, aggregation partials) and uint32 (matched
// build-side positions of the hash probe).
//
// Ownership rules:
//
//   - Kernels borrow with borrowU64/borrowU64Zeroed/borrowU32 and return a
//     borrowed buffer (as a pointer) to their caller; ownership transfers
//     with the return value.
//   - The operator entry points (Filter, Gather, HashProbe, SumGrouped,
//     ...) are the only owners of query-visible results. Called without
//     a Lease they copy borrowed contents into exact-size owned slices
//     (out) and release the scratch; borrowed memory never escapes into
//     a Sel, Vec or Result.
//   - Two kinds of borrow outlive their operator call, and both belong
//     to the query that asked (exec.Run releases them on every exit):
//     Delta's softened column, returned together with its release func;
//     and, when the Opts carries the query's Lease, the position, value
//     and match vectors of Filter, FilterSel, Gather, GatherAt, SemiJoin
//     and HashProbe, which then stay in (right-sized) arena buffers
//     instead of being copied into fresh pages. Nothing of a Lease may
//     be read after its Release; a Result never aliases one.
//   - Error logs follow the same discipline: runMorsels borrows one
//     private log per morsel, merges them into the caller's log in morsel
//     order, and releases them. A released log's entries have always been
//     copied out, so the append path of a live log never aliases pooled
//     memory.
//   - On an error or cancellation return, runMorsels releases the
//     borrows of every morsel that completed (its drop callback); a
//     morsel that failed mid-kernel releases its own borrows before
//     returning the error. Cancellation IS a steady-state path under the
//     serving layer, so aborted runs must leave the arena balanced -
//     LiveScratch tracks the outstanding borrow count and must return to
//     zero once all queries drain.
type scratchClass[T any] struct {
	pool sync.Pool
	size int
}

// Size classes are powers of two from 1<<scratchMinBits to
// 1<<scratchMaxBits values. Borrows above the top class fall back to the
// plain allocator and are dropped on release (a whole-input morsel at a
// large scale factor; a pooled morsel always fits a class).
const (
	scratchMinBits = 8
	scratchMaxBits = 22
)

func newScratchClasses[T any]() []*scratchClass[T] {
	cs := make([]*scratchClass[T], scratchMaxBits-scratchMinBits+1)
	for i := range cs {
		size := 1 << (scratchMinBits + i)
		c := &scratchClass[T]{size: size}
		c.pool.New = func() any {
			b := make([]T, 0, size)
			return &b
		}
		cs[i] = c
	}
	return cs
}

// The arena is width-typed: one class set per element width, so a
// kernel borrows at the narrowest width that holds its values. u8/u16
// carry narrow attribute payloads (the fused sink's per-block
// attribute staging is u16 - group keys are checked against 1<<16 before
// staging), u32 carries probe-side positions, u64 carries
// positions/bitmaps/partials.
var (
	u8Classes  = newScratchClasses[uint8]()
	u16Classes = newScratchClasses[uint16]()
	u64Classes = newScratchClasses[uint64]()
	u32Classes = newScratchClasses[uint32]()
)

// liveScratch counts borrowed-but-not-released scratch buffers. Every
// borrow increments; every release (including the own/concat copies and
// the above-class drops) decrements. A balanced arena reads zero once no
// query is in flight - the leak invariant the serving layer's drain and
// the cancellation tests assert.
var liveScratch atomic.Int64

// LiveScratch returns the number of scratch-arena buffers currently
// borrowed and not yet released. It is exposed for leak detection: after
// all queries have drained (completed, failed, or cancelled) it must be
// zero.
func LiveScratch() int64 { return liveScratch.Load() }

// classFor returns the smallest size class holding n values, or nil when
// n exceeds the largest class.
func classFor[T any](cs []*scratchClass[T], n int) *scratchClass[T] {
	if n <= 1<<scratchMinBits {
		return cs[0]
	}
	idx := bits.Len(uint(n-1)) - scratchMinBits
	if idx >= len(cs) {
		return nil
	}
	return cs[idx]
}

// borrow returns a zero-length scratch buffer with capacity >= n.
func borrow[T any](cs []*scratchClass[T], n int) *[]T {
	liveScratch.Add(1)
	c := classFor(cs, n)
	if c == nil {
		b := make([]T, 0, n)
		return &b
	}
	p := c.pool.Get().(*[]T)
	*p = (*p)[:0]
	return p
}

// release returns a borrowed buffer to its size class. Buffers that
// outgrew every class are dropped (the GC reclaims them), but still
// count as released for the LiveScratch balance.
func release[T any](cs []*scratchClass[T], p *[]T) {
	if p == nil {
		return
	}
	liveScratch.Add(-1)
	c := classFor(cs, cap(*p))
	if c == nil || c.size > cap(*p) {
		// Above the top class, or an off-class capacity from the
		// fallback allocator: not reusable as a class member.
		return
	}
	c.pool.Put(p)
}

// concat merges borrowed buffers (the parts of one runMorsels call, in
// morsel order) into one exact-size owned slice, releasing every part - the
// one allocation per operator output the zero-allocation budget
// documents.
func concat[T any](cs []*scratchClass[T], parts []*[]T) []T {
	n := 0
	for _, p := range parts {
		n += len(*p)
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, *p...)
		release(cs, p)
	}
	return out
}

// Lease is the set of operator outputs a query keeps in the arena: an
// Opts that carries one (KeepIn) makes the materializing operators hand
// out their position, value and match vectors as arena buffers recorded
// here instead of copying them into fresh slices, and Release returns
// them all. exec.Run owns one per query and releases it on every exit,
// as it does the Δ buffers; a Lease is used by one plan goroutine.
type Lease struct {
	u64    []*[]uint64
	u32    []*[]uint32
	values int
}

// leaseMaxValues bounds what one Lease pins (32 Mi values, at most
// 256 MiB): past it operators copy out as they do without a Lease, so a
// plan that calls operators in a loop cannot hold the arena hostage. The
// 13 flights stay far below it up to SF 1 (a few million values).
const leaseMaxValues = 32 << 20

// KeepIn makes the operators called with o keep their outputs in l.
func (o *Opts) KeepIn(l *Lease) { o.lease = l }

// Release returns every buffer of the lease to the arena. The vectors
// handed out under it are dead afterwards.
func (l *Lease) Release() {
	for _, p := range l.u64 {
		releaseU64(p)
	}
	for _, p := range l.u32 {
		releaseU32(p)
	}
	*l = Lease{}
}

// keep turns the borrowed parts of one operator output into a leased
// buffer recorded in kept: a single part already in the size class of
// its length stays where it is, anything else - a whole-column buffer a
// selective scan left mostly empty, per-morsel parts - is moved into one
// right-sized arena buffer, so a lease never pins more than twice what
// it holds. ok is false when the lease is full.
func keep[T any](cs []*scratchClass[T], l *Lease, kept *[]*[]T, parts []*[]T) ([]T, bool) {
	n := 0
	for _, p := range parts {
		n += len(*p)
	}
	if l.values+n > leaseMaxValues {
		return nil, false
	}
	l.values += n
	if len(parts) == 1 && classFor(cs, n) == classFor(cs, cap(*parts[0])) {
		*kept = append(*kept, parts[0])
		return *parts[0], true
	}
	dst := borrow(cs, n)
	for _, p := range parts {
		*dst = append(*dst, *p...)
		release(cs, p)
	}
	*kept = append(*kept, dst)
	return *dst, true
}

// outU64 makes the borrowed parts of an operator's uint64 output - one
// per morsel of its runMorsels call, in morsel order, so one for a
// whole-input morsel - query-visible: kept in the
// query's lease when o carries one, copied into an owned slice
// otherwise. Either way the parts are no longer the caller's.
func (o *Opts) outU64(parts ...*[]uint64) []uint64 {
	if o != nil && o.lease != nil {
		if out, ok := keep(u64Classes, o.lease, &o.lease.u64, parts); ok {
			return out
		}
	}
	return concat(u64Classes, parts)
}

// outU32 is outU64 for matched build positions.
func (o *Opts) outU32(parts ...*[]uint32) []uint32 {
	if o != nil && o.lease != nil {
		if out, ok := keep(u32Classes, o.lease, &o.lease.u32, parts); ok {
			return out
		}
	}
	return concat(u32Classes, parts)
}

// borrowU64 returns a zero-length uint64 scratch buffer with capacity >= n.
func borrowU64(n int) *[]uint64 { return borrow(u64Classes, n) }

// borrowU64Zeroed returns a zeroed length-n scratch buffer (the shape of
// a per-morsel aggregation partial).
func borrowU64Zeroed(n int) *[]uint64 {
	p := borrowU64(n)
	*p = (*p)[:n]
	clear(*p)
	return p
}

// releaseU64 returns a borrowed uint64 buffer to its size class.
func releaseU64(p *[]uint64) { release(u64Classes, p) }

// borrowU32 returns a zero-length uint32 scratch buffer with capacity >= n.
func borrowU32(n int) *[]uint32 { return borrow(u32Classes, n) }

// releaseU32 returns a borrowed uint32 buffer to its size class.
func releaseU32(p *[]uint32) { release(u32Classes, p) }

// borrowU16 returns a zero-length uint16 scratch buffer with capacity >= n.
func borrowU16(n int) *[]uint16 { return borrow(u16Classes, n) }

// releaseU16 returns a borrowed uint16 buffer to its size class.
func releaseU16(p *[]uint16) { release(u16Classes, p) }

// logPool recycles the per-morsel private error logs of runMorsels.
var logPool = sync.Pool{New: func() any { return NewErrorLog() }}

// borrowLog returns an empty error log from the pool.
func borrowLog() *ErrorLog {
	l := logPool.Get().(*ErrorLog)
	l.Reset()
	return l
}

// releaseLog returns a log to the pool once its entries have been merged.
func releaseLog(l *ErrorLog) {
	if l != nil {
		logPool.Put(l)
	}
}
