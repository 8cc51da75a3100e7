package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ahead/internal/an"
	"ahead/internal/exec"
	"ahead/internal/faults"
	"ahead/internal/ops"
	"ahead/internal/ssb"
	"ahead/internal/storage"
)

// Heights a workload can drive.
const (
	heightEngine  = "engine"
	heightNode    = "node"
	heightCluster = "cluster"
)

// workload is one row of the benchmark's workload table. Every workload
// measures every end-to-end metric at its own height and size; what
// differs is where the time goes.
type workload struct {
	name   string
	sf     float64
	height string
	// faults plants a flip before every injectEvery-th open-loop request,
	// asks every request to heal, and re-hardens a live column twice.
	faults bool
	// rates are the frozen open-loop rates r_low, r_ref, r_high in
	// queries per second: about 20/40/60 % of the closed-loop capacity
	// measured once on the seed commit (2 cores), r_ref rounded to 10.
	rates [3]float64
	// Shares of the measured seconds per phase. A run makes `rounds`
	// passes over the four phases, a slice of each per pass.
	suite, capacity, open, heal float64
}

var workloads = []workload{
	{name: "engine_sf0.1", sf: 0.1, height: heightEngine, rates: [3]float64{75, 150, 225},
		suite: 0.45, capacity: 0.17, open: 0.28, heal: 0.10},
	// A sweep takes 3 s at this size, so the one sweep per round already
	// overruns any suite share; the seconds go to the open loop, which
	// needs 400 requests at 50 qps for two windows with a p95 each.
	{name: "engine_sf0.3", sf: 0.3, height: heightEngine, rates: [3]float64{25, 50, 75},
		suite: 0.18, capacity: 0.17, open: 0.55, heal: 0.10},
	{name: "serve_node", sf: 0.1, height: heightNode, rates: [3]float64{65, 130, 195},
		suite: 0.30, capacity: 0.15, open: 0.45, heal: 0.10},
	{name: "serve_cluster", sf: 0.1, height: heightCluster, rates: [3]float64{65, 130, 195},
		suite: 0.30, capacity: 0.15, open: 0.45, heal: 0.10},
	{name: "serve_faults", sf: 0.1, height: heightNode, faults: true, rates: [3]float64{30, 60, 90},
		suite: 0.30, capacity: 0.15, open: 0.55},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

const (
	smokeSF = 0.01
	// setups is how often a run sets the system up from nothing; setup_s
	// is the median. One set-up is one sample of a 0.5..2 s quantity
	// that moves with allocator and page-cache state.
	setups = 3
	// reps is the repetition count of the kernel probes.
	reps = 20
	// rounds is how often a run cycles through its phases. Each metric is
	// read from the calmest of its slices, so it gets `rounds` separate
	// chances at a quiet machine instead of one contiguous stretch.
	rounds = 4
	// probeSweeps is the number of mode x flight sweeps of a suite probe
	// that is bounded by repetitions, not time.
	probeSweeps = 3
	// minHeals is the fewest plant-and-heal rounds of a heal slice.
	minHeals = 2
)

// modeKey is a mode's name inside metric names.
func modeKey(m exec.Mode) string { return strings.ToLower(m.String()) }

// runner carries one run of one workload.
type runner struct {
	cfg     config
	w       workload
	procs   int
	st      *stack
	tgt     target
	ref     map[string]*ops.Result
	tracer  *tracer
	metrics map[string]float64
	rng     *rand.Rand // sweep orders

	attempted, failed atomic.Int64
	failMu            sync.Mutex
	firstFailure      string

	injected, detected, repaired atomic.Int64
}

func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// unlessSmoke returns n, or the smoke mode's smaller count: smoke checks
// the plumbing and measures nothing.
func (r *runner) unlessSmoke(n, smoke int) int {
	if r.cfg.smoke {
		return smoke
	}
	return n
}

// accept is the correctness oracle for one answer: no error, equal to the
// Unprotected serial reference, nothing degraded, and - unless the
// request was meant to meet a fault - nothing detected or repaired.
func (r *runner) accept(flight string, a answer, err error, mayHeal bool) bool {
	r.attempted.Add(1)
	switch {
	case err != nil:
		r.fail("%s: %v", flight, err)
	case a.res == nil || len(a.res.Aggs) != len(a.res.Keys) || !r.ref[flight].Equal(a.res):
		r.fail("%s: answer differs from the Unprotected reference", flight)
	case a.degraded:
		r.fail("%s: degraded answer", flight)
	case !mayHeal && (a.detections > 0 || a.attempts > 1):
		r.fail("%s: %d detections, %d attempts on a clean workload", flight, a.detections, a.attempts)
	default:
		return true
	}
	return false
}

// spec returns the set-up this run needs. A traced run builds every
// height so every layer can be probed; heights the workload does not
// drive are reached in process, without sockets.
func (r *runner) spec() stackSpec {
	s := stackSpec{sf: r.w.sf, seed: r.cfg.seed, tracer: r.tracer}
	if r.cfg.smoke {
		s.sf = smokeSF
	}
	if r.cfg.trace {
		s.node, s.cluster = inProcess, inProcess
	}
	switch r.w.height {
	case heightNode:
		s.node = loopback
	case heightCluster:
		s.cluster = loopback
	}
	return s
}

func (r *runner) targetAt(height string) target {
	switch height {
	case heightNode:
		return &httpTarget{client: r.st.client, url: r.st.nodeURL}
	case heightCluster:
		return &httpTarget{client: r.st.client, url: r.st.routerURL, shardURLs: r.st.shardURLs}
	}
	return &engineTarget{db: r.st.db, inj: faults.NewInjector(r.cfg.seed)}
}

// setUp builds the system `setups` times, keeps the last, and records
// setup_s, the resident-memory ratio and the reference answers.
func (r *runner) setUp() error {
	var times []float64
	for i := 0; i < r.unlessSmoke(setups, 1); i++ {
		if r.st != nil {
			r.st.close()
			r.st = nil
		}
		runtime.GC()
		t0 := time.Now()
		st, err := buildStack(r.spec())
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		r.st = st
	}
	r.metrics["setup_s"] = median(times)
	r.metrics["ssb.generate_s"] = r.st.generateS
	r.metrics["exec.newdb_s"] = r.st.newdbS

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	ref, userBytes, err := references(r.st)
	if err != nil {
		return err
	}
	runtime.GC() // the oracle's own DB, if it built one
	r.ref = ref
	r.metrics["resident_bytes_per_user_byte"] = float64(mem.HeapAlloc) / float64(userBytes)
	r.metrics["exec.heap_bytes"] = float64(mem.HeapAlloc)
	r.tgt = r.targetAt(r.w.height)
	return nil
}

// references returns the oracle's answers - every flight's Unprotected
// serial result on the single-node data - and that data's plain size. A
// cluster-only set-up holds no single-node DB, so one is built from the
// same generated tables and dropped again.
func references(st *stack) (map[string]*ops.Result, int, error) {
	db := st.db
	if db == nil {
		var err error
		if db, err = exec.NewDB(st.data.Tables(), storage.LargestCodeChooser); err != nil {
			return nil, 0, err
		}
	}
	ref := make(map[string]*ops.Result)
	for _, f := range ssb.QueryNames {
		res, _, err := exec.Run(db, exec.Unprotected, ops.Blocked, ssb.Queries[f])
		if err != nil {
			return nil, 0, fmt.Errorf("reference %s: %w", f, err)
		}
		ref[f] = res
	}
	return ref, db.StorageBytes(exec.Unprotected), nil
}

func (r *runner) phase(share float64) time.Duration {
	return time.Duration(share * r.cfg.seconds * float64(time.Second))
}

// suiteTimes holds per-mode, per-flight samples in milliseconds.
type suiteTimes map[exec.Mode]map[string][]float64

// suiteMS is the time to answer the flights whose name starts with group
// ("Q": all 13) once: the sum over flights of each flight's fastest
// sample. The fastest of a cell's samples, not their median, because
// this box's noise only ever adds time (see README, "Reading through the
// noise").
func (s suiteTimes) suiteMS(m exec.Mode, group string) float64 {
	total := 0.0
	for f, xs := range s[m] {
		if strings.HasPrefix(f, group) && len(xs) > 0 {
			total += slices.Min(xs)
		}
	}
	return total
}

// suitePhase answers the suite under every mode with one client, closed
// loop, in interleaved sweeps: each sweep visits every (mode, flight)
// cell once in a shuffled order, so a slow stretch of the host cannot
// claim all samples of one cell. It runs at least `least` sweeps and then
// until dur is used up, and adds its samples to into. ask is the call
// being timed.
func (r *runner) suitePhase(into suiteTimes, dur time.Duration, least int, modes []exec.Mode, ask func(f string, m exec.Mode) (answer, error), mayHeal bool, spanName string) {
	type cell struct {
		m exec.Mode
		f string
	}
	var cells []cell
	for _, m := range modes {
		if into[m] == nil {
			into[m] = map[string][]float64{}
		}
		for _, f := range ssb.QueryNames {
			cells = append(cells, cell{m, f})
		}
	}
	deadline := time.Now().Add(dur)
	for sweep := 0; sweep < least || time.Now().Before(deadline); sweep++ {
		r.rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		sweepSpan := r.tracer.begin("sweep", 0, int64(sweep))
		for _, c := range cells {
			id := r.tracer.begin(spanName, sweepSpan, int64(sweep))
			t0 := time.Now()
			a, err := ask(c.f, c.m)
			d := time.Since(t0)
			r.tracer.end(id, nil)
			if r.accept(c.f, a, err, mayHeal) {
				into[c.m][c.f] = append(into[c.m][c.f], ms(d))
			}
		}
		r.tracer.end(sweepSpan, nil)
	}
}

// do adapts the request sequence to the load generator: request i of a
// slice is entry offset+i of the sequence; it asks for its flight under
// Continuous, planting its flip first if it has one.
func (r *runner) do(tgt target, seq []request, offset int, faulty bool) doFunc {
	return func(i int) outcome {
		req := seq[(offset+i)%len(seq)]
		if faulty && req.Inject != "" {
			n, err := tgt.plant(req.Inject)
			if err != nil {
				r.fail("inject %s: %v", req.Inject, err)
			}
			r.injected.Add(int64(n))
		}
		a, err := tgt.ask(req.Flight, exec.Continuous, faulty)
		ok := r.accept(req.Flight, a, err, faulty)
		r.noteFaults(a)
		return outcome{Flight: req.Flight, OK: ok, Healed: a.attempts > 1}
	}
}

// tracedDo is do with a loadgen.request span around each request; the
// span's id is published so handler spans can name it as their parent.
func (r *runner) tracedDo(tgt target, seq []request) (doFunc, *[]float64) {
	nonExec := new([]float64)
	return func(i int) outcome {
		req := seq[i%len(seq)]
		r.tracer.reqID.Add(1)
		id := r.tracer.begin("loadgen.request", 0, r.tracer.reqID.Load())
		r.tracer.reqSpan.Store(int64(id))
		t0 := time.Now()
		a, err := tgt.ask(req.Flight, exec.Continuous, false)
		d := time.Since(t0)
		r.tracer.end(id, map[string]float64{"exec_ms": a.execMS})
		ok := r.accept(req.Flight, a, err, false)
		if ok {
			*nonExec = append(*nonExec, ms(d)-a.execMS)
		}
		return outcome{Flight: req.Flight, OK: ok}
	}, nonExec
}

// rehardenTwice swaps lo_quantity to the next-smaller code and back at
// one and two thirds of the phase, while queries run: the system's
// writes beside reads. lo_quantity is no injection site, so a swap never
// wipes a planted flip before a query met it.
func (r *runner) rehardenTwice(dur time.Duration) (wait func()) {
	db := r.st.db
	col := db.Hardened("lineorder").MustColumn("lo_quantity")
	orig := col.Code()
	smaller, ok := an.NextSmaller(orig)
	if !ok {
		r.fail("lo_quantity has no smaller code to re-harden to")
		return func() {}
	}
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, code := range []*an.Code{smaller, orig} {
			wallClock{}.SleepUntil(start.Add(dur * time.Duration(i+1) / 3))
			if _, err := db.RehardenColumn("lineorder", "lo_quantity", code); err != nil {
				r.fail("re-harden lo_quantity: %v", err)
			}
		}
	}()
	return func() { <-done }
}

// openPhase drives the frozen rate for dur, starting at entry offset of
// the request sequence, and returns the slice's statistics. With faults
// it re-hardens a live column twice meanwhile and ends with one closing
// pass that heals the flips no scheduled request happened to meet.
func (r *runner) openPhase(tgt target, rate float64, dur time.Duration, seq []request, offset int, faulty bool) loadStats {
	wait := func() {}
	if faulty {
		// However short the phase, the schedule must reach two faults.
		dur = max(dur, time.Duration((2*injectEvery+1)/rate*float64(time.Second)))
		wait = r.rehardenTwice(dur)
	}
	st := summarize(openLoop(wallClock{}, rate, dur, r.procs, r.do(tgt, seq, offset, faulty)))
	wait()
	if faulty {
		for _, f := range []string{"Q1.1", "Q2.1", "Q3.1"} {
			a, err := tgt.askHealing(f)
			r.accept(f, a, err, true)
			r.noteFaults(a)
		}
	}
	return st
}

// healPhase plants one flip, asks the flight that must meet it, and
// times detection to healthy; repeated serially for dur. It returns how
// many flights of the sequence it went through.
func (r *runner) healPhase(into healTimes, tgt target, dur time.Duration, seq []request, offset int) (planted int) {
	deadline := time.Now().Add(dur)
	i := 0
	for ; i < minHeals || time.Now().Before(deadline); i++ {
		f := seq[(offset+i)%len(seq)].Flight
		n, err := tgt.plant(fullScanColumn(f))
		if err != nil {
			r.fail("inject %s: %v", fullScanColumn(f), err)
			continue
		}
		r.injected.Add(int64(n))
		t0 := time.Now()
		a, err := tgt.askHealing(f)
		d := time.Since(t0)
		if !r.accept(f, a, err, true) {
			continue
		}
		r.noteFaults(a)
		if a.attempts > 1 {
			into.add(f, ms(d))
		}
	}
	return i
}

func (r *runner) noteFaults(a answer) {
	r.detected.Add(int64(a.detections))
	r.repaired.Add(int64(a.repaired))
}

// settleFaults closes the fault ledger: every planted flip was detected
// and repaired, no more and no fewer.
func (r *runner) settleFaults() {
	inj, det, rep := r.injected.Load(), r.detected.Load(), r.repaired.Load()
	if inj != det || inj != rep {
		r.fail("fault ledger: injected %d, detected %d, repaired %d", inj, det, rep)
	}
}

// measure is the untraced run: every end-to-end metric, nothing else.
// It cycles `rounds` times through suite sweeps, closed loop, open loop
// at r_ref and plant-and-heal, and reads each metric from the calmest
// slice (README, "Reading through the noise").
func (r *runner) measure() {
	w, m := r.w, r.metrics
	seq := requestSequence(r.cfg.seed, 13*injectEvery*8, w.faults)
	n := r.unlessSmoke(rounds, 1)
	slice := func(share float64) time.Duration { return r.phase(share) / time.Duration(n) }

	suite := suiteTimes{}
	closed, open := summarize(nil), summarize(nil)
	heals, healed := healTimes{}, 0
	for round := 0; round < n; round++ {
		r.suitePhase(suite, slice(w.suite), 1, exec.Modes, func(f string, mode exec.Mode) (answer, error) {
			return r.tgt.ask(f, mode, w.faults)
		}, w.faults, "suite.ask")
		closed.merge(summarize(closedLoop(wallClock{}, slice(w.capacity), r.procs, r.do(r.tgt, seq, closed.sent, false))))
		open.merge(r.openPhase(r.tgt, w.rates[1], slice(w.open), seq, open.sent, w.faults))
		if !w.faults {
			healed += r.healPhase(heals, r.tgt, slice(w.heal), seq, healed)
		}
	}
	if w.faults {
		heals = open.heals
	}
	if len(heals) == 0 {
		r.fail("no healed answer to time")
	}
	for _, mode := range exec.Modes {
		m["suite_ms."+modeKey(mode)] = suite.suiteMS(mode, "Q")
	}
	m["capacity_qps"] = closed.bestQPS
	m["latency_p50_ms"] = open.latency(50)
	m["latency_p95_ms"] = open.latency(95)
	m["heal_ms"] = heals.typical()
	r.settleFaults()
}
