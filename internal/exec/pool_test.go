package exec

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ahead/internal/ops"
	"ahead/internal/storage"
)

// TestPoolForEachCoversEveryIndexOnce checks the morsel tiling: dense
// morsel indices, [start, end) ranges covering [0, total) exactly once,
// including a ragged final morsel.
func TestPoolForEachCoversEveryIndexOnce(t *testing.T) {
	p := NewPoolMorsel(4, 1000)
	defer p.Close()
	const total = 100_000 + 37 // not a multiple of the morsel size
	hits := make([]atomic.Int32, total)
	p.ForEach(total, func(m, start, end int) {
		if start != m*1000 {
			t.Errorf("morsel %d starts at %d", m, start)
		}
		if end-start > 1000 || end > total {
			t.Errorf("morsel %d spans [%d, %d)", m, start, end)
		}
		for i := start; i < end; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("index %d ran %d times", i, n)
		}
	}
}

// TestPoolWorkStealingStress runs far more morsels than workers with
// deliberately skewed morsel cost, so the goroutines not stuck on a slow
// morsel must claim the rest; every morsel must still run exactly once.
func TestPoolWorkStealingStress(t *testing.T) {
	p := NewPoolMorsel(4, 16)
	defer p.Close()
	const total = 16 * 1200 // 1200 morsels on 4 workers
	var ran atomic.Int64
	hits := make([]atomic.Int32, total/16)
	p.ForEach(total, func(m, start, end int) {
		hits[m].Add(1)
		ran.Add(int64(end - start))
		if m%97 == 0 {
			time.Sleep(200 * time.Microsecond) // skew: some morsels are slow
		}
	})
	if ran.Load() != total {
		t.Fatalf("covered %d of %d values", ran.Load(), total)
	}
	for m := range hits {
		if n := hits[m].Load(); n != 1 {
			t.Fatalf("morsel %d ran %d times", m, n)
		}
	}
}

// TestPoolNestedSubmission submits task sets from inside pool jobs - the
// DMR/TMR shape, where each replica job fans out its kernels' morsels on
// the same pool. Every set bringing its own goroutines must keep this
// deadlock-free even when jobs outnumber workers.
func TestPoolNestedSubmission(t *testing.T) {
	p := NewPoolMorsel(2, 64)
	defer p.Close()
	done := make(chan struct{})
	var inner atomic.Int64
	go func() {
		defer close(done)
		jobs := make([]func(), 4) // more jobs than workers
		for i := range jobs {
			jobs[i] = func() {
				p.ForEach(64*10, func(m, start, end int) {
					inner.Add(int64(end - start))
				})
			}
		}
		p.Jobs(jobs...)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested submission deadlocked")
	}
	if want := int64(4 * 64 * 10); inner.Load() != want {
		t.Fatalf("inner morsels covered %d of %d values", inner.Load(), want)
	}
}

// TestPoolJobsRunsAll checks the replica-job barrier.
func TestPoolJobsRunsAll(t *testing.T) {
	p := NewPoolMorsel(3, DefaultMorselSize)
	defer p.Close()
	ran := make([]atomic.Bool, 8)
	jobs := make([]func(), len(ran))
	for i := range jobs {
		i := i
		jobs[i] = func() { ran[i].Store(true) }
	}
	p.Jobs(jobs...)
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("job %d never ran", i)
		}
	}
}

// TestPoolSingleWorkerFallsBackToSerial checks the degenerate pool still
// covers everything (run's inline path).
func TestPoolSingleWorkerFallsBackToSerial(t *testing.T) {
	p := NewPoolMorsel(1, 100)
	defer p.Close()
	covered := 0
	p.ForEach(1050, func(m, start, end int) { covered += end - start })
	if covered != 1050 {
		t.Fatalf("covered %d of 1050", covered)
	}
}

// TestPoolPanicReachesCaller: a panicking morsel - on a helper goroutine
// or on the submitter - must surface on the caller once the whole set has
// finished, instead of killing the process from a pool goroutine.
func TestPoolPanicReachesCaller(t *testing.T) {
	p := NewPoolMorsel(4, 8)
	var ran atomic.Int64
	got := func() (r any) {
		defer func() { r = recover() }()
		p.ForEach(8*400, func(m, _, _ int) {
			if m%7 == 3 {
				panic("morsel panic")
			}
			ran.Add(1)
		})
		return nil
	}()
	if got != "morsel panic" {
		t.Fatalf("caller recovered %v, want the morsel's panic", got)
	}
	if want := int64(400 - 57); ran.Load() != want { // 57 of 400 morsels have m%7 == 3
		t.Fatalf("%d healthy morsels ran before the re-panic, want %d", ran.Load(), want)
	}
	if d := p.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after the set, want 0", d)
	}
}

// TestPoolServingShapeStress is the serving shape: many goroutines submit
// task sets to one small pool at once. Every morsel of every set runs
// once, each set's per-morsel outputs concatenate in morsel order to its
// input, and nothing is left unclaimed afterwards.
func TestPoolServingShapeStress(t *testing.T) {
	p := NewPoolMorsel(2, 16)
	const submitters, sets, total = 8, 50, 16*28 + 5
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < sets; s++ {
				outs := make([][]int, (total+15)/16)
				var hits [(total + 15) / 16]atomic.Int32
				p.ForEach(total, func(m, start, end int) {
					hits[m].Add(1)
					for i := start; i < end; i++ {
						outs[m] = append(outs[m], i)
					}
				})
				var merged []int
				for m := range outs {
					if n := hits[m].Load(); n != 1 {
						t.Errorf("set %d: morsel %d ran %d times", s, m, n)
						return
					}
					merged = append(merged, outs[m]...)
				}
				if len(merged) != total {
					t.Errorf("set %d: merged %d values, want %d", s, len(merged), total)
					return
				}
				for i, v := range merged {
					if v != i {
						t.Errorf("set %d: merged output holds %d at %d", s, v, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if d := p.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after every set finished, want 0", d)
	}
}

// TestPoolJobsNilPoolRunsInOrderOnCaller pins the replica path of a run
// without a pool: exec.Run hands DMR/TMR replicas to Jobs on a nil pool,
// which must run them one after another on the calling goroutine.
func TestPoolJobsNilPoolRunsInOrderOnCaller(t *testing.T) {
	var p *Pool
	caller := goroutineID()
	var order []int
	jobs := make([]func(), 4)
	for i := range jobs {
		i := i
		jobs[i] = func() {
			if id := goroutineID(); id != caller {
				t.Errorf("job %d ran on goroutine %s, caller is %s", i, id, caller)
			}
			order = append(order, i)
		}
	}
	p.Jobs(jobs...)
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Fatalf("jobs ran in order %v", order)
	}
}

// goroutineID returns the running goroutine's id from its stack header
// ("goroutine 17 [running]: ...").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestPoolFilterMatchesSerial runs the hardened continuous-detection
// filter kernel on the pool and compares positions and detected-error
// logs against the serial run, with corrupted words in several morsels.
func TestPoolFilterMatchesSerial(t *testing.T) {
	code, err := storage.LargestCodeChooser(16)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := storage.NewColumn("v", storage.ShortInt)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 50_000
	for i := 0; i < rows; i++ {
		plain.Append(uint64(i*7919) & 0xFFFF)
	}
	col, err := plain.Harden(code)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 1000; pos < rows; pos += 9000 {
		col.Corrupt(pos, 1<<3)
	}

	serialLog := ops.NewErrorLog()
	serial, err := ops.Filter(col, 0x1000, 0xB000, &ops.Opts{Detect: true, Log: serialLog})
	if err != nil {
		t.Fatal(err)
	}
	if serialLog.Count() == 0 {
		t.Fatal("serial run detected nothing; corruption setup is broken")
	}

	p := NewPoolMorsel(4, 4096)
	defer p.Close()
	parLog := ops.NewErrorLog()
	par, err := ops.Filter(col, 0x1000, 0xB000, &ops.Opts{Detect: true, Log: parLog, Par: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Pos) != len(serial.Pos) {
		t.Fatalf("parallel selected %d rows, serial %d", len(par.Pos), len(serial.Pos))
	}
	for i := range par.Pos {
		if par.Pos[i] != serial.Pos[i] {
			t.Fatalf("position %d: parallel %d vs serial %d", i, par.Pos[i], serial.Pos[i])
		}
	}
	if !serialLog.Equal(parLog) {
		t.Fatalf("parallel log (%d entries) differs from serial (%d entries)",
			parLog.Count(), serialLog.Count())
	}
}
