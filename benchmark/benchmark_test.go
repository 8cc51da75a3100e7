package main

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ahead/internal/server"
	"ahead/internal/ssb"
)

const manifestPath = "../BENCHMARK.json"

// fakeClock only moves when told to: SleepUntil jumps forward, advance
// stands for time spent in the system under test.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// A server slower than the schedule: requests are due every 20 ms and
// take 30 ms on the one connection. The generator must fall 10 ms
// further behind per request, and latency must be charged from the due
// time, not from the (late) send.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	samples := openLoop(clk, 50, 200*time.Millisecond, 1, func(int) outcome {
		clk.advance(30 * time.Millisecond)
		return outcome{OK: true}
	})
	if len(samples) != 10 {
		t.Fatalf("sent %d requests, want 10", len(samples))
	}
	for i, s := range samples {
		if got, want := s.lateMS(), float64(10*i); got != want {
			t.Errorf("request %d: sent %v ms late, want %v", i, got, want)
		}
		if got, want := s.latencyMS(), float64(10*i+30); got != want {
			t.Errorf("request %d: latency %v ms, want %v (from due time)", i, got, want)
		}
	}
	st := summarize(samples)
	if st.sent != 10 || st.good != 10 {
		t.Errorf("summary counts %d sent, %d good", st.sent, st.good)
	}
	if st.lateP95 != 40 { // ten samples support the median only: late = 0,10,..,90
		t.Errorf("late percentile %v, want the median 40", st.lateP95)
	}
}

func TestFailedRequestMissesEveryLimit(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	samples := openLoop(clk, 100, 100*time.Millisecond, 1, func(i int) outcome {
		clk.advance(time.Millisecond)
		return outcome{OK: i != 3}
	})
	if !math.IsInf(samples[3].latencyMS(), 1) {
		t.Errorf("failed request has latency %v, want +Inf", samples[3].latencyMS())
	}
	if st := summarize(samples); st.good != 9 {
		t.Errorf("good = %d, want 9", st.good)
	}
}

func TestBacklogGrowthIsSeen(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	slow := summarize(openLoop(clk, 100, time.Second, 1, func(int) outcome {
		clk.advance(12 * time.Millisecond) // 12 ms of work every 10 ms
		return outcome{OK: true}
	}))
	if !slow.backlogGrowing {
		t.Error("a server slower than the schedule shows no growing backlog")
	}
	keepsUp := summarize(openLoop(clk, 100, time.Second, 1, func(int) outcome {
		clk.advance(8 * time.Millisecond)
		return outcome{OK: true}
	}))
	if keepsUp.backlogGrowing {
		t.Error("a server faster than the schedule shows a growing backlog")
	}
}

func TestPickPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, want, pick int
	}{
		{19, 95, 50}, {20, 95, 50}, {40, 95, 75}, {100, 95, 90}, {199, 95, 90}, {200, 95, 95},
		{999, 99, 95}, {1000, 99, 99}, {100000, 95, 95}, {5, 50, 50},
	} {
		if got := pickPercentile(c.n, c.want); got != c.pick {
			t.Errorf("pickPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.pick)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 95); got != 90 {
		t.Errorf("p95 of 100 samples = %v, want the supported p90 = 90", got)
	}
}

func TestSpreadMatchesExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "router", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "shard", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "shard", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "late", Start: 80, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [80,100): 70 of the parent's 100.
	if self[1] != 30 {
		t.Errorf("parent self time %d, want 30", self[1])
	}
	if self[2] != 25 || self[3] != 30 || self[5] != 5 {
		t.Errorf("self times %v", self)
	}
}

func TestTracerIsInertWhenNil(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", 0, 0), nil)
	if tr.mark() != 0 || tr.since(0) != nil || tr.write("unused", nil) != nil {
		t.Error("nil tracer recorded something")
	}
}

func TestRequestSequenceIsSeeded(t *testing.T) {
	a, b := requestSequence(7, 500, true), requestSequence(7, 500, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two request sequences")
	}
	if reflect.DeepEqual(a, requestSequence(8, 500, true)) {
		t.Error("two seeds gave the same request sequence")
	}
	for i, r := range a {
		wantInject := ""
		if i > 0 && i%injectEvery == 0 {
			wantInject = fullScanColumn(r.Flight)
		}
		if r.Index != i || r.Inject != wantInject {
			t.Errorf("request %d: index %d, inject %q, want %q", i, r.Index, r.Inject, wantInject)
		}
	}
	// Every cycle of 13 is a permutation of the flights.
	for c := 0; c+13 <= len(a); c += 13 {
		var flights []string
		for _, r := range a[c : c+13] {
			flights = append(flights, r.Flight)
		}
		sort.Strings(flights)
		want := append([]string(nil), ssb.QueryNames...)
		sort.Strings(want)
		if !reflect.DeepEqual(flights, want) {
			t.Fatalf("cycle at %d is not a permutation of the flights: %v", c, flights)
		}
	}
	for _, r := range requestSequence(7, 100, false) {
		if r.Inject != "" {
			t.Fatal("a clean sequence carries an injection site")
		}
	}
}

// Two servers built from the same seed plant the same flips in the same
// places: injection sites are part of the seeded input.
func TestInjectionSitesAreSeeded(t *testing.T) {
	var sites [2][][]uint64
	for i := range sites {
		st, err := buildStack(stackSpec{sf: 0.002, seed: 11, node: inProcess})
		if err != nil {
			t.Fatal(err)
		}
		tgt := &httpTarget{client: st.client, url: st.nodeURL}
		for _, col := range []string{"lo_discount", "lo_custkey", "lo_discount"} {
			var resp server.InjectResponse
			if err := tgt.post(st.nodeURL+"/inject", server.InjectRequest{Col: col}, &resp); err != nil {
				t.Fatal(err)
			}
			sites[i] = append(sites[i], resp.Positions)
		}
		st.close()
	}
	if !reflect.DeepEqual(sites[0], sites[1]) {
		t.Errorf("same seed, different injection sites: %v vs %v", sites[0], sites[1])
	}
}

func TestPoolLargerThanMachineIsRefused(t *testing.T) {
	if p, err := newPool(runtime.NumCPU() + 1); err == nil {
		p.Close()
		t.Error("a pool with more workers than cores was not refused")
	}
	p, err := newPool(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
}

func TestManifestNamesAndWorkloads(t *testing.T) {
	man, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the program has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range man.EndToEnd {
		check(d.Name)
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no end-to-end metric setup_s [s, lower]")
	}
	if len(man.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(man.PerLayer))
	}
	for _, d := range append(man.EndToEnd, man.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range man.PerLayer {
		check(d.Name)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", man.RunSeconds)
	}
}

// The smoke mode boots every workload, traced and untraced, at SF 0.01
// with minimal phases. runWorkload fails if any metric the manifest
// lists was not measured, so passing means every name is emitted.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	man, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			run, err := runWorkload(config{
				workload: w.name, seed: 5, seconds: 0.2, trace: trace, smoke: true,
				manifest: manifestPath, outDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !run.Result.Correct || run.Result.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d failed: %s", w.name, trace, run.Result.Failed, run.Result.Attempted, run.Failure)
			}
			want := man.EndToEnd
			if trace {
				want = man.PerLayer
			}
			if len(run.Result.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, manifest lists %d", w.name, trace, len(run.Result.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := run.Result.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, trace, d.Name)
				case v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: %s = %v %s", w.name, trace, d.Name, v.Value, v.Unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.Name, v.Value)
				}
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	man, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	// Set b: one metric 50 % worse, one with a spread far over any bound,
	// everything else identical to a.
	mk := func(worse, noisy string) *resultSet {
		s := &resultSet{Runs: map[string][]setRun{}}
		for _, w := range man.Workloads {
			for i := 0; i < 10; i++ {
				m := map[string]float64{}
				for _, d := range man.EndToEnd {
					v := 100 + 0.01*float64(i)
					if d.Name == worse {
						if d.Better == "higher" {
							v /= 1.5
						} else {
							v *= 1.5
						}
					}
					if d.Name == noisy {
						v = 100 + 20*float64(i)
					}
					m[d.Name] = v
				}
				s.Runs[w.Name] = append(s.Runs[w.Name], setRun{Seed: i, Metrics: m})
			}
		}
		return s
	}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, mk("", "")); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, mk("capacity_qps", "latency_p95_ms")); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	worse, err := compareSets(&out, manifestPath, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 50 % drop in capacity_qps was not reported as worse")
	}
	for _, line := range strings.Split(out.String(), "\n")[1:] {
		switch {
		case line == "":
		case strings.Contains(line, "capacity_qps"):
			if !strings.HasSuffix(line, "worse") {
				t.Errorf("want worse: %s", line)
			}
		case strings.Contains(line, "latency_p95_ms"):
			if !strings.HasSuffix(line, "unresolved") {
				t.Errorf("want unresolved: %s", line)
			}
		case !strings.HasSuffix(line, "ok"):
			t.Errorf("want ok: %s", line)
		}
	}
	out.Reset()
	if worse, err := compareSets(&out, manifestPath, a, a); err != nil || worse {
		t.Errorf("a set compared with itself: worse=%v err=%v", worse, err)
	}
}
