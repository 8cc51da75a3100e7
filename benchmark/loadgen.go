package main

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ahead/internal/ssb"
)

// clock is the load generator's only source of time, so the open-loop
// scheduler can be tested against a fake one.
type clock interface {
	Now() time.Time
	// SleepUntil returns once Now() >= t.
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// injectEvery is the fault schedule of serve_faults: every tenth request
// index meets a freshly planted flip.
const injectEvery = 10

// request is one entry of the seeded request sequence.
type request struct {
	Index  int
	Flight string
	// Inject names the fact column a flip is planted in just before this
	// request is sent ("" for none): the column this flight scans in
	// full, so the flip cannot go unseen.
	Inject string
}

// fullScanColumn is the lineorder column each flight reads at every row
// in every hardened mode: the first fused range predicate of Q1.x and
// the first join's foreign key of the grouped flights. Later predicates
// and joins only see the survivors of earlier ones.
func fullScanColumn(flight string) string {
	switch flight[:2] {
	case "Q1":
		return "lo_discount"
	case "Q2":
		return "lo_partkey"
	default:
		return "lo_custkey"
	}
}

// requestSequence is the traffic mix: the 13 SSB flights in a seeded
// order, reshuffled every cycle so no flight always follows the same
// neighbour. With faults set, every injectEvery-th request carries its
// injection site. The same seed gives the same sequence.
func requestSequence(seed int64, n int, faults bool) []request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, 0, n)
	cycle := append([]string(nil), ssb.QueryNames...)
	for len(out) < n {
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		for _, f := range cycle {
			if len(out) == n {
				break
			}
			r := request{Index: len(out), Flight: f}
			if faults && r.Index > 0 && r.Index%injectEvery == 0 {
				r.Inject = fullScanColumn(f)
			}
			out = append(out, r)
		}
	}
	return out
}

// outcome is what sending one request came to.
type outcome struct {
	Flight string
	OK     bool
	Healed bool // the answer needed a repair-and-retry
}

// sample is one request as the load generator saw it. Due equals Sent in
// a closed loop.
type sample struct {
	outcome
	Index           int
	Due, Sent, Done time.Time
}

// latencyMS is the client-visible latency, timed from when the request
// was due, not from when the generator got round to sending it: a stall
// is charged to every request that queued behind it. A failed or refused
// request misses every latency limit.
func (s sample) latencyMS() float64 {
	if !s.OK {
		return math.Inf(1)
	}
	return ms(s.Done.Sub(s.Due))
}

func (s sample) lateMS() float64 { return ms(s.Sent.Sub(s.Due)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// doFunc sends request i and reports what became of it.
type doFunc func(i int) outcome

// openLoop sends n = rate*dur requests on a fixed schedule - request i is
// due at start + i/rate - over at most `workers` connections. A worker
// takes the next index, waits for its due time and sends; when all
// workers are busy the next request goes out late, and that wait counts
// in its latency.
func openLoop(clk clock, rate float64, dur time.Duration, workers int, do doFunc) []sample {
	n := int(rate * dur.Seconds())
	samples := make([]sample, n)
	start := clk.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := sample{Index: i, Due: start.Add(time.Duration(float64(i) / rate * float64(time.Second)))}
				clk.SleepUntil(s.Due)
				s.Sent = clk.Now()
				s.outcome = do(i)
				s.Done = clk.Now()
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop keeps `workers` clients busy for dur: each sends its next
// request as soon as the previous one is answered.
func closedLoop(clk clock, dur time.Duration, workers int, do doFunc) []sample {
	deadline := clk.Now().Add(dur)
	var next atomic.Int64
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for clk.Now().Before(deadline) {
				s := sample{Index: int(next.Add(1)) - 1, Sent: clk.Now()}
				s.Due = s.Sent
				s.outcome = do(s.Index)
				s.Done = clk.Now()
				mine = append(mine, s)
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples
}

// maxWindows is how many windows a phase's samples are cut into at most.
const maxWindows = 6

// calmest cuts xs, which is in time order, into up to maxWindows windows
// of at least perWindow samples each and returns the lowest per-window
// stat: the phase as its calmest stretch saw it. A neighbour stealing
// the cores for a second inflates the windows it hits and leaves the
// others alone; a property of the system shows in every window.
func calmest(xs []float64, perWindow int, stat func([]float64) float64) float64 {
	w := min(max(len(xs)/perWindow, 1), maxWindows)
	best := math.Inf(1)
	for i := 0; i < w; i++ {
		best = min(best, stat(xs[i*len(xs)/w:(i+1)*len(xs)/w]))
	}
	return best
}

// healTimes holds detection-to-healthy latencies in ms by flight. Flights
// differ fourfold in cost, so a median over whatever mix of flights
// happened to meet a flip would mostly measure the mix.
type healTimes map[string][]float64

func (h healTimes) add(flight string, ms float64) { h[flight] = append(h[flight], ms) }

// typical is the mean over flights of each flight's fastest heal: what
// detection-to-healthy costs a flight of the mix on a calm machine. (A
// median over flights would sit in the gap between the cheap Q1.x and
// the expensive Q3/Q4 flights and jump from one side to the other.)
func (h healTimes) typical() float64 {
	total := 0.0
	for _, xs := range h {
		total += slices.Min(xs)
	}
	return total / float64(max(len(h), 1))
}

// loadStats condenses a phase's samples.
type loadStats struct {
	sent, good     int
	latencies      []float64 // ms in due order, +Inf for failures
	heals          healTimes // healed answers only
	bestQPS        float64   // good answers per second in the best window
	lateP95        float64
	backlogGrowing bool
}

// latency is the want-th latency percentile of the phase's calmest
// window. Windows hold at least 200 samples, so that a p95 has its ten
// samples beyond it; a phase with fewer is one window.
func (st loadStats) latency(want int) float64 {
	return calmest(st.latencies, 200, func(w []float64) float64 { return percentile(w, want) })
}

func summarize(samples []sample) loadStats {
	st := loadStats{sent: len(samples), heals: healTimes{}}
	if len(samples) == 0 {
		return st
	}
	samples = append([]sample(nil), samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i].Due.Before(samples[j].Due) })
	first, last := samples[0].Due, samples[0].Done
	late := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.OK {
			st.good++
		}
		if s.Done.After(last) {
			last = s.Done
		}
		st.latencies = append(st.latencies, s.latencyMS())
		if s.Healed && s.OK {
			st.heals.add(s.Flight, s.latencyMS())
		}
		late = append(late, s.lateMS())
	}
	// Throughput per window of wall time, best window. A window is a
	// quarter second or longer, so it still holds some hundred answers.
	span := last.Sub(first)
	counts := make([]int, max(int(span/rateWindow), 1))
	for _, s := range samples {
		if s.OK && span > 0 {
			counts[min(int(time.Duration(len(counts))*s.Done.Sub(first)/span), len(counts)-1)]++
		}
	}
	for _, c := range counts {
		st.bestQPS = max(st.bestQPS, float64(c*len(counts))/span.Seconds())
	}
	st.lateP95 = percentile(late, 95)
	// A backlog grows when the generator runs later and later: compare
	// how late the last quarter of the schedule went out with the first.
	if q := len(late) / 4; q >= 10 {
		head, tail := median(late[:q]), median(late[len(late)-q:])
		st.backlogGrowing = tail > head+backlogSlackMS
	}
	return st
}

// rateWindow is the shortest window throughput is read over.
const rateWindow = 250 * time.Millisecond

// merge folds a later slice of the same phase into st.
func (st *loadStats) merge(next loadStats) {
	st.sent += next.sent
	st.good += next.good
	st.latencies = append(st.latencies, next.latencies...)
	for f, xs := range next.heals {
		st.heals[f] = append(st.heals[f], xs...)
	}
	st.bestQPS = max(st.bestQPS, next.bestQPS)
	st.lateP95 = max(st.lateP95, next.lateP95)
	st.backlogGrowing = st.backlogGrowing || next.backlogGrowing
}

// backlogSlackMS is how much later the tail of a rung may run than its
// head before the rung counts as not keeping up.
const backlogSlackMS = 10
