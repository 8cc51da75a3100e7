package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultMorselSize is the number of values per morsel. 64K values keeps
// a morsel's working set inside the L2 cache at every column width the
// engine stores (1-8 bytes per value) while leaving enough morsels per
// SSB column for claiming to balance skew.
const DefaultMorselSize = 64 * 1024

// Pool is the morsel dispatcher of morsel-driven parallelism (Leis et
// al.): each task set - one ForEach or Jobs call - is drained by its
// submitter plus up to Workers()-1 helper goroutines of its own, each
// claiming the next morsel from the set's atomic counter until none is
// left. No queue exists; nested submission (DMR replica jobs fanning out
// their kernels) cannot deadlock, and the Go scheduler bounds total CPU
// at GOMAXPROCS. A morsel's panic is recovered where it ran and re-raised
// on the submitter once no goroutine touches the set's buffers any more.
// Pool implements ops.Parallel; attach one to a query with WithPool.
type Pool struct {
	workers int
	morsel  int
	queued  atomic.Int64 // morsels submitted but not yet claimed
}

// NewPool returns a pool of n workers; n <= 0 means GOMAXPROCS. Morsels
// default to DefaultMorselSize values.
func NewPool(n int) *Pool {
	return NewPoolMorsel(n, DefaultMorselSize)
}

// NewPoolMorsel is NewPool with an explicit morsel size (tests shrink it
// to force many morsels onto few workers).
func NewPoolMorsel(n, morselSize int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if morselSize <= 0 {
		morselSize = DefaultMorselSize
	}
	return &Pool{workers: n, morsel: morselSize}
}

// Workers returns the per-set fan-out bound: the submitter plus at most
// Workers()-1 helpers (ops.Parallel).
func (p *Pool) Workers() int { return p.workers }

// MorselSize returns the values-per-morsel granularity (ops.Parallel).
func (p *Pool) MorselSize() int { return p.morsel }

// QueueDepth returns the number of morsels submitted but not yet claimed
// across all in-flight task sets - the backlog gauge the serving layer's
// /metrics exports. It is a racy snapshot by nature.
func (p *Pool) QueueDepth() int {
	if p == nil {
		return 0
	}
	return int(p.queued.Load())
}

// Close stops nothing: a pool holds no goroutines between task sets. It
// stays so that callers written against a resident pool keep compiling.
func (p *Pool) Close() {}

// ForEach splits [0, total) into morsels and runs fn once per morsel,
// returning when all morsels have finished. Morsel indices are dense:
// morsel m covers [m*MorselSize, min((m+1)*MorselSize, total)), so
// callers can collect per-morsel partial states into a slice and merge
// them in morsel order (ops.Parallel).
func (p *Pool) ForEach(total int, fn func(morsel, start, end int)) {
	ms := p.morsel
	p.run((total+ms-1)/ms, func(m int) {
		start := m * ms
		fn(m, start, min(start+ms, total))
	})
}

// Jobs runs the given functions as independent tasks and waits for all
// of them - the replicated-execution barrier DMR/TMR vote at. On a nil
// pool the jobs run one after another on the caller, in order.
func (p *Pool) Jobs(fns ...func()) {
	p.run(len(fns), func(m int) { fns[m]() })
}

// taskSet is one ForEach/Jobs submission: the claim counter its
// goroutines share and the first panic any of them recovered.
type taskSet struct {
	next   atomic.Int64
	count  int
	task   func(m int)
	queued *atomic.Int64
	panic  atomic.Pointer[any]
}

// run executes task(0..count-1) on the caller plus up to Workers()-1
// helper goroutines and returns when every task has finished.
func (p *Pool) run(count int, task func(m int)) {
	helpers := 0
	if p != nil {
		helpers = min(p.workers, count) - 1
	}
	if helpers <= 0 {
		for m := 0; m < count; m++ {
			task(m)
		}
		return
	}
	s := &taskSet{count: count, task: task, queued: &p.queued}
	p.queued.Add(int64(count))
	var wg sync.WaitGroup
	wg.Add(helpers)
	for range helpers {
		go func() {
			defer wg.Done()
			for s.claim() {
			}
		}()
	}
	for s.claim() {
	}
	wg.Wait()
	if r := s.panic.Load(); r != nil {
		panic(*r)
	}
}

// claim runs the next unclaimed task, reporting false once none is left.
// A panicking task is recorded and its goroutine claims on.
func (s *taskSet) claim() (more bool) {
	m := int(s.next.Add(1)) - 1
	if m >= s.count {
		return false
	}
	s.queued.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			s.panic.CompareAndSwap(nil, &r)
		}
	}()
	more = true
	s.task(m)
	return more
}
