package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ahead/internal/ops"
)

// stubPartialJSON builds a valid serialized Partial for one slice.
func stubPartialJSON(t *testing.T, slice int, query string, sum uint64) []byte {
	t.Helper()
	p, err := EncodePartial(query, "continuous", "scalar", ShardSpec{Index: slice, Count: 3},
		[][]uint64{{1993}}, &ops.Vec{Name: "sum", Vals: []uint64{sum}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// newStubShard boots a fake ahead-serve replica: always-ready /readyz,
// a zero /metrics detection counter, and the given /partial behavior.
func newStubShard(t *testing.T, partial http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ahead_detected_errors_total 0")
	})
	mux.HandleFunc("/partial", partial)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// serveStub answers /partial with the body after an optional delay,
// aborting early if the router canceled the request (the losing side
// of a hedge).
func serveStub(delay time.Duration, status int, body []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		if status != http.StatusOK {
			w.WriteHeader(status)
		}
		_, _ = w.Write(body)
	}
}

func newTestRouter(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// routerQuery posts one query straight at the handler.
func routerQuery(t *testing.T, rt *Router) (*RouterResponse, int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"query":"Q"}`))
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	body := w.Body.Bytes()
	if w.Code != http.StatusOK {
		return nil, w.Code, body
	}
	resp := new(RouterResponse)
	if err := json.Unmarshal(body, resp); err != nil {
		t.Fatalf("decode router response: %v (%s)", err, body)
	}
	return resp, w.Code, body
}

// quietProbes keeps the probe loop effectively off so tests drive
// health through the scatter path alone.
const quietProbes = time.Hour

// TestHedgedScatterSlowPrimary pins request hedging: a slow preferred
// replica is raced against its peer after the hedge delay, the peer's
// partial wins, and the response is full-coverage and correct - with
// the hedge visible in the metrics.
func TestHedgedScatterSlowPrimary(t *testing.T) {
	body := stubPartialJSON(t, 0, "Q", 100)
	slow := newStubShard(t, serveStub(2*time.Second, http.StatusOK, body))
	fast := newStubShard(t, serveStub(0, http.StatusOK, body))
	rt := newTestRouter(t, RouterConfig{
		Slices:        [][]string{{slow.URL, fast.URL}},
		HedgeDelay:    20 * time.Millisecond,
		ProbeInterval: quietProbes,
	})

	start := time.Now()
	resp, code, _ := routerQuery(t, rt)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge never fired: query took %v waiting on the slow primary", elapsed)
	}
	if resp.ShardsAnswered != 1 || resp.ShardsTotal != 1 || resp.Degraded {
		t.Fatalf("coverage %d/%d degraded=%v, want full", resp.ShardsAnswered, resp.ShardsTotal, resp.Degraded)
	}
	if len(resp.Aggs) != 1 || resp.Aggs[0] != 100 {
		t.Fatalf("aggs %v, want [100]", resp.Aggs)
	}
	if rt.m.hedges.Load() == 0 || rt.m.hedgeWins.Load() == 0 {
		t.Fatalf("hedges=%d wins=%d, want both > 0", rt.m.hedges.Load(), rt.m.hedgeWins.Load())
	}
	// Neither replica was penalized: the loser was canceled, not failed.
	for _, s := range rt.all {
		if !s.Healthy() || s.requestsFailed.Load() != 0 {
			t.Fatalf("%s penalized by a hedge race", s.Name())
		}
	}
}

// TestShedRetriesOnReplica pins the shed-rows bugfix: a 429 from the
// preferred replica must not silently drop the slice from the merge -
// the replica peer is asked instead, the shed is counted in its own
// metric, and the shedding replica takes no health penalty.
func TestShedRetriesOnReplica(t *testing.T) {
	shedding := newStubShard(t, serveStub(0, http.StatusTooManyRequests, []byte(`{"error":"queue full"}`)))
	calm := newStubShard(t, serveStub(0, http.StatusOK, stubPartialJSON(t, 0, "Q", 77)))
	rt := newTestRouter(t, RouterConfig{
		Slices:        [][]string{{shedding.URL, calm.URL}},
		HedgeDelay:    -1, // hedging off: the retry must come from the shed itself
		ProbeInterval: quietProbes,
	})

	resp, code, _ := routerQuery(t, rt)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Degraded || resp.ShardsAnswered != 1 || resp.Aggs[0] != 77 {
		t.Fatalf("shed slice must be re-served by the replica: %+v", resp)
	}
	if got := rt.m.shardsShed.Load(); got != 1 {
		t.Fatalf("shards_shed_total = %d, want 1", got)
	}
	if rt.m.shardsFailed.Load() != 0 {
		t.Fatal("a shed must not count as a shard failure")
	}
	if !rt.all[0].Healthy() {
		t.Fatal("backpressure must not cost the replica its health")
	}
}

// TestAllRepliesShedDegrades: when every replica of a slice sheds, the
// slice goes unanswered and the response degrades - but each shed is
// still counted.
func TestAllRepliesShedDegrades(t *testing.T) {
	shed1 := newStubShard(t, serveStub(0, http.StatusServiceUnavailable, []byte(`{"error":"draining"}`)))
	shed2 := newStubShard(t, serveStub(0, http.StatusTooManyRequests, []byte(`{"error":"queue full"}`)))
	ok := newStubShard(t, serveStub(0, http.StatusOK, stubPartialJSON(t, 1, "Q", 5)))
	rt := newTestRouter(t, RouterConfig{
		Slices:        [][]string{{shed1.URL, shed2.URL}, {ok.URL}},
		HedgeDelay:    -1,
		ProbeInterval: quietProbes,
	})
	resp, code, _ := routerQuery(t, rt)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !resp.Degraded || resp.ShardsAnswered != 1 || resp.ShardsTotal != 2 {
		t.Fatalf("want explicit 1/2 degraded coverage, got %+v", resp)
	}
	if got := rt.m.shardsShed.Load(); got != 2 {
		t.Fatalf("shards_shed_total = %d, want 2", got)
	}
}

// TestClientErrorConsensus pins the 4xx relay fix: a shard's 4xx
// verdict is relayed only when every contacted slice agrees; a mix of
// 4xx and shed (or failure) is a 503, because the cluster never
// actually judged the request together.
func TestClientErrorConsensus(t *testing.T) {
	badReq := []byte(`{"error":"unknown query \"Qx\""}`)
	fourOhFour := newStubShard(t, serveStub(0, http.StatusNotFound, badReq))
	shed := newStubShard(t, serveStub(0, http.StatusTooManyRequests, []byte(`{"error":"busy"}`)))

	// One 404 + one shed: no consensus, must answer 503.
	rt := newTestRouter(t, RouterConfig{
		Slices:        [][]string{{fourOhFour.URL}, {shed.URL}},
		HedgeDelay:    -1,
		ProbeInterval: quietProbes,
	})
	_, code, body := routerQuery(t, rt)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("4xx+shed answered %d (%s), want 503: one shard's verdict is not consensus", code, body)
	}

	// Unanimous 404: relay the verdict verbatim.
	fourOhFour2 := newStubShard(t, serveStub(0, http.StatusNotFound, badReq))
	rt2 := newTestRouter(t, RouterConfig{
		Slices:        [][]string{{fourOhFour.URL}, {fourOhFour2.URL}},
		HedgeDelay:    -1,
		ProbeInterval: quietProbes,
	})
	_, code, body = routerQuery(t, rt2)
	if code != http.StatusNotFound || !strings.Contains(string(body), "unknown query") {
		t.Fatalf("unanimous 404 answered %d (%s), want the relayed verdict", code, body)
	}
}

// TestEnvelopeMismatchFailsSlice: a replica answering with a partial
// for a different query is a broken envelope - its slice drops out
// (degraded), the replica is penalized, and the merged response keeps
// the consistent envelope.
func TestEnvelopeMismatchFailsSlice(t *testing.T) {
	good := newStubShard(t, serveStub(0, http.StatusOK, stubPartialJSON(t, 0, "Q", 10)))
	rogue := newStubShard(t, serveStub(0, http.StatusOK, stubPartialJSON(t, 1, "Q-other", 20)))
	rt := newTestRouter(t, RouterConfig{
		Slices:        [][]string{{good.URL}, {rogue.URL}},
		HedgeDelay:    -1,
		ProbeInterval: quietProbes,
	})
	resp, code, _ := routerQuery(t, rt)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !resp.Degraded || resp.ShardsAnswered != 1 || resp.Query != "Q" {
		t.Fatalf("mismatched envelope must fail its slice, got %+v", resp)
	}
	if rt.all[1].requestsFailed.Load() == 0 {
		t.Fatal("rogue replica not penalized for the broken envelope")
	}
}

// waitAlert polls the router's alert history until one alert matches,
// failing the test after the deadline.
func waitAlert(t *testing.T, rt *Router, what string, match func(Alert) bool) Alert {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, al := range rt.Alerts() {
			if match(al) {
				return al
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s alert within 10s (alerts: %+v)", what, rt.Alerts())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// isAction matches a remediation alert for the given action kind.
func isAction(kind string) func(Alert) bool {
	return func(al Alert) bool {
		return al.Kind == "remediation" && al.Action != nil && al.Action.Kind == kind
	}
}

// TestQuarantinePromoteRestartAlerts drives remediation end to end
// against a dead primary: probes quarantine it, the replica is
// promoted (scatter keeps full coverage), the restart hook fires with
// the replica's identity in the environment, and every step surfaces
// on /alerts and /metrics.
func TestQuarantinePromoteRestartAlerts(t *testing.T) {
	dead := newStubShard(t, serveStub(0, http.StatusOK, nil))
	dead.Close() // connection refused from the start
	alive := newStubShard(t, serveStub(0, http.StatusOK, stubPartialJSON(t, 0, "Q", 9)))

	restartMark := filepath.Join(t.TempDir(), "restarted")
	rt := newTestRouter(t, RouterConfig{
		Slices:          [][]string{{dead.URL, alive.URL}},
		ProbeInterval:   10 * time.Millisecond,
		ProbeTimeout:    200 * time.Millisecond,
		QuarantineAfter: 2,
		BackoffBase:     20 * time.Millisecond,
		BackoffMax:      40 * time.Millisecond,
		HedgeDelay:      -1,
		RestartCommand:  "echo \"$AHEAD_SLICE.$AHEAD_REPLICA\" > " + restartMark,
	})

	waitAlert(t, rt, "quarantine transition", func(al Alert) bool {
		return al.Kind == "transition" && al.Transition.To == StateQuarantined
	})
	if al := waitAlert(t, rt, "promote", isAction(ActionPromote)); al.Action.Replica != 1 {
		t.Fatalf("promoted replica %d, want 1", al.Action.Replica)
	}
	if al := waitAlert(t, rt, "restart", isAction(ActionRestart)); al.Err != "" {
		t.Fatalf("restart hook failed: %s", al.Err)
	}
	if got := rt.slices[0].preferred.Load(); got != 1 {
		t.Fatalf("slice preference %d, want promoted replica 1", got)
	}
	if data, err := os.ReadFile(restartMark); err != nil || strings.TrimSpace(string(data)) != "0.0" {
		t.Fatalf("restart hook evidence %q (%v), want \"0.0\"", data, err)
	}

	// Queries keep full coverage through the promoted replica.
	resp, code, _ := routerQuery(t, rt)
	if code != http.StatusOK || resp.Degraded || resp.ShardsAnswered != 1 || resp.Aggs[0] != 9 {
		t.Fatalf("promoted replica must carry the slice, got %+v (status %d)", resp, code)
	}

	// Remediation is visible on the endpoints.
	metrics := routerMetricsText(t, rt)
	for _, line := range []string{
		`ahead_router_shard_up{shard="0",replica="0"} 0`,
		`ahead_router_shard_up{shard="0",replica="1"} 1`,
		`ahead_router_slice_preferred_replica{shard="0"} 1`,
		`ahead_router_remediations_total{action="promote"} `,
		`ahead_router_health_transitions_total{to="quarantined"} `,
	} {
		if !strings.Contains(metrics, line) {
			t.Fatalf("metrics missing %q:\n%s", line, metrics)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/alerts", nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if body := w.Body.String(); !strings.Contains(body, `"quarantined"`) || !strings.Contains(body, `"promote"`) {
		t.Fatalf("/alerts missing the remediation history: %s", body)
	}
}

// routerMetricsText scrapes the router's /metrics exposition.
func routerMetricsText(t *testing.T, rt *Router) string {
	t.Helper()
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return w.Body.String()
}

// TestDeadReplicaRestartsByThirdWindow: a replica that never comes back
// is never re-admitted, so it enters quarantine once and from then on
// only extends its window. It is its slice's only replica, so no peer
// can add transitions of its own. Each extension must still reach the restart
// rule - the hook runs, with the replica's identity, once the replica
// has run through restartAfter windows - while raising no transition
// alert and no transition count of its own.
func TestDeadReplicaRestartsByThirdWindow(t *testing.T) {
	dead := newStubShard(t, serveStub(0, http.StatusOK, nil))
	dead.Close()

	restartMark := filepath.Join(t.TempDir(), "restarted")
	rt := newTestRouter(t, RouterConfig{
		Slices:         [][]string{{dead.URL}},
		ProbeInterval:  5 * time.Millisecond,
		ProbeTimeout:   200 * time.Millisecond,
		BackoffBase:    10 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		HedgeDelay:     -1,
		RestartCommand: "echo \"$AHEAD_SLICE.$AHEAD_REPLICA\" >> " + restartMark,
	})

	al := waitAlert(t, rt, "restart", isAction(ActionRestart))
	if al.Err != "" {
		t.Fatalf("restart hook failed: %s", al.Err)
	}
	if al.Action.Slice != 0 || al.Action.Replica != 0 || al.Transition.From != StateQuarantined {
		t.Fatalf("restart must come from a window extension of shard0.0, got %+v", al)
	}
	if n := rt.all[0].quarantines.Load(); n < restartAfter {
		t.Fatalf("restart after %d windows, want at least %d", n, restartAfter)
	}
	data, err := os.ReadFile(restartMark)
	if err != nil || !strings.HasPrefix(string(data), "0.0\n") {
		t.Fatalf("restart hook evidence %q (%v), want \"0.0\" lines", data, err)
	}
	entries := 0
	for _, al := range rt.Alerts() {
		if al.Kind == "transition" {
			entries++
			if al.Transition.From != StateHealthy || al.Transition.Replica != 0 {
				t.Fatalf("only the one quarantine entry may raise a transition alert, got %+v", al)
			}
		}
	}
	if entries != 1 || rt.m.transitions[StateQuarantined].Load() != 1 {
		t.Fatalf("transition alerts %d, transitions_total %d: window extensions must raise neither",
			entries, rt.m.transitions[StateQuarantined].Load())
	}
}

// TestDeadReplicaQueuesOneExtension: a replica whose windows run out
// faster than remediation keeps up extends on every failure, but only
// one extension per replica may wait in the remediation queue - the
// rest would crowd out other replicas' transitions.
func TestDeadReplicaQueuesOneExtension(t *testing.T) {
	dead := newStubShard(t, serveStub(0, http.StatusOK, nil))
	dead.Close()
	rt := newTestRouter(t, RouterConfig{
		Slices:          [][]string{{dead.URL}},
		ProbeInterval:   quietProbes,
		QuarantineAfter: 1,
		BackoffBase:     time.Nanosecond,
		BackoffMax:      time.Nanosecond,
	})
	rt.Close() // no remediation loop: the queue only fills
	s := rt.all[0]
	for i := 0; i < 2*cap(rt.events); i++ {
		rt.noteFailure(s, "probe-failures")
		time.Sleep(time.Microsecond) // past the 1ns window
	}
	if n := s.quarantines.Load(); n < 10 {
		t.Fatalf("setup: only %d windows", n)
	}
	if len(rt.events) != 2 || rt.m.eventsDropped.Load() != 0 {
		t.Fatalf("queued %d events (dropped %d), want the entry plus one extension", len(rt.events), rt.m.eventsDropped.Load())
	}
	if entry := <-rt.events; entry.From != StateHealthy {
		t.Fatalf("first event %v, want the quarantine entry", entry)
	}
	ext := <-rt.events
	rt.remediate(ext) // consuming the extension lets the next one queue
	rt.noteFailure(s, "probe-failures")
	if len(rt.events) != 1 {
		t.Fatalf("after remediating the extension, %d events queued, want 1", len(rt.events))
	}
}

// TestRemediatorPipeline runs health events through Router.remediate
// and checks alerts, counters and effects line up: one transition alert
// followed by one alert per executed action, in rule order; a failing
// restart hook alerted with its error and counted; a promote that
// changes nothing kept silent.
func TestRemediatorPipeline(t *testing.T) {
	dead := newStubShard(t, serveStub(0, http.StatusOK, nil))
	dead.Close()
	alive := newStubShard(t, serveStub(0, http.StatusOK, stubPartialJSON(t, 0, "Q", 9)))
	rt := newTestRouter(t, RouterConfig{
		Slices:         [][]string{{dead.URL, alive.URL}},
		ProbeInterval:  quietProbes,
		HedgeDelay:     -1,
		RestartCommand: "exit 3",
	})

	// Put the primary through restartAfter windows, the last one far
	// from over, without the probe loop.
	victim := rt.all[0]
	start := time.Now()
	for i := 0; i < restartAfter; i++ {
		victim.reportFailure(start.Add(time.Duration(i)*time.Hour), 1, time.Hour, time.Hour)
	}
	tr := Transition{Slice: 0, Replica: 0, URL: victim.url, From: StateHealthy, To: StateQuarantined,
		Reason: "probe-failures", At: time.Unix(9, 0)}
	rt.remediate(tr)
	rt.workers.Wait() // the restart runs on the replica's worker

	got := rt.Alerts()
	var kinds []string
	for _, al := range got[1:] {
		kinds = append(kinds, al.Action.Kind)
	}
	if len(got) != 4 || got[0].Kind != "transition" || got[0].Transition.Reason != "probe-failures" ||
		strings.Join(kinds, ",") != "promote,reprobe,restart" {
		t.Fatalf("want the transition, then promote, reprobe, restart alerts; got %+v", got)
	}
	if got[1].Action.Replica != 1 || rt.slices[0].preferred.Load() != 1 {
		t.Fatalf("promote not applied: %+v, preferred %d", got[1].Action, rt.slices[0].preferred.Load())
	}
	if got[3].Err == "" || !strings.Contains(got[3].Err, "exit status 3") {
		t.Fatalf("failing restart hook must alert with its error, got %+v", got[3])
	}
	metrics := routerMetricsText(t, rt)
	for _, line := range []string{
		`ahead_router_health_transitions_total{to="quarantined"} 1`,
		`ahead_router_remediations_total{action="promote"} 1`,
		`ahead_router_remediations_total{action="reprobe"} 1`,
		`ahead_router_remediations_total{action="restart"} 1`,
		`ahead_router_remediations_total{action="sync-from-peer"} 0`,
		`ahead_router_remediation_errors_total 1`,
		`ahead_router_alerts_total 4`,
	} {
		if !strings.Contains(metrics, line) {
			t.Fatalf("metrics missing %q:\n%s", line, metrics)
		}
	}

	// A re-admission that relapsed before it was remediated: the
	// preferred replica is the quarantined one, so decide promotes the
	// recovering replica - which is already preferred. Nothing changes
	// and nothing beyond the transition is alerted.
	rt.slices[0].preferred.Store(0)
	rt.remediate(Transition{Slice: 0, Replica: 0, URL: victim.url, From: StateQuarantined, To: StateHealthy, Reason: "reprobe"})
	if got := rt.Alerts(); len(got) != 5 || got[4].Kind != "transition" {
		t.Fatalf("no-op promote must not alert, got %+v", got[4:])
	}
	if line := `ahead_router_remediations_total{action="promote"} 1`; !strings.Contains(routerMetricsText(t, rt), line) {
		t.Fatalf("no-op promote counted: metrics miss %q", line)
	}
}

// TestSlowHookDoesNotDelayOtherSlicePromote: a restart hook that hangs
// on slice 0's primary runs on that replica's worker, so when slice 1's
// primary dies, its quarantine is promoted away from within one probe
// interval - not after the hook returns. Close then cancels the hook
// and waits for the worker, which alerts the restart's outcome.
func TestSlowHookDoesNotDelayOtherSlicePromote(t *testing.T) {
	const probeInterval = 100 * time.Millisecond
	dead0 := newStubShard(t, serveStub(0, http.StatusOK, nil))
	dead0.Close()
	alive0 := newStubShard(t, serveStub(0, http.StatusOK, nil))
	primary1 := newStubShard(t, serveStub(0, http.StatusOK, nil))
	alive1 := newStubShard(t, serveStub(0, http.StatusOK, nil))
	rt := newTestRouter(t, RouterConfig{
		Slices:          [][]string{{dead0.URL, alive0.URL}, {primary1.URL, alive1.URL}},
		ProbeInterval:   probeInterval,
		ProbeTimeout:    probeInterval,
		QuarantineAfter: 1,
		HedgeDelay:      -1,
		RestartCommand:  "exec sleep 3",
	})

	// shard0.0 has run through restartAfter windows, the last one far
	// from over, so its quarantine entry runs the hanging hook.
	victim := rt.all[0]
	start := time.Now()
	for i := 0; i < restartAfter; i++ {
		victim.reportFailure(start.Add(time.Duration(i)*time.Hour), 1, time.Hour, time.Hour)
	}
	rt.emit(Transition{Slice: 0, Replica: 0, URL: victim.url, From: StateHealthy, To: StateQuarantined,
		Reason: "probe-failures", At: start})
	waitAlert(t, rt, "slice 0 promote", func(al Alert) bool { return isAction(ActionPromote)(al) && al.Action.Slice == 0 })
	time.Sleep(20 * time.Millisecond) // the hook is running now

	primary1.Close()
	for rt.slices[1].preferred.Load() != 1 {
		if time.Since(start) > 10*time.Second {
			t.Fatal("slice 1 was never promoted away from its dead primary")
		}
		time.Sleep(time.Millisecond)
	}
	promoted := time.Now()
	tr := waitAlert(t, rt, "slice 1 quarantine", func(al Alert) bool {
		return al.Kind == "transition" && al.Transition.Slice == 1 && al.Transition.To == StateQuarantined
	}).Transition
	if d := promoted.Sub(tr.At); d > probeInterval {
		t.Fatalf("slice 1 promoted %v after its primary's quarantine, want within one probe interval (%v)", d, probeInterval)
	}
	for _, al := range rt.Alerts() {
		if isAction(ActionRestart)(al) {
			t.Fatalf("the hook finished before slice 1 was promoted; test is vacuous: %+v", al)
		}
	}

	closing := time.Now()
	rt.Close()
	if d := time.Since(closing); d > time.Second {
		t.Fatalf("Close took %v: it must cancel the hanging hook", d)
	}
	al := waitAlert(t, rt, "restart", isAction(ActionRestart))
	if al.Err == "" || al.Action.Slice != 0 {
		t.Fatalf("the cancelled hook must alert its error on shard0.0, got %+v", al)
	}
}

// TestBusyWorkerDefersSync: quarantine entries that arrive while the
// replica's restart hook still runs are deferred, not dropped - the
// sync-from-peer the rules raise only on an entry runs once the hook
// returns. Two entries coalesce into one waiting action per kind, the
// newest, so the worker's queue stays bounded, and nothing of it runs
// while the hook does.
func TestBusyWorkerDefersSync(t *testing.T) {
	victimSrv := newStubShard(t, serveStub(0, http.StatusOK, nil))
	peerSrv := newStubShard(t, serveStub(0, http.StatusOK, nil))
	release := filepath.Join(t.TempDir(), "release")
	rt := newTestRouter(t, RouterConfig{
		Slices:           [][]string{{victimSrv.URL, peerSrv.URL}},
		ProbeInterval:    quietProbes,
		HedgeDelay:       -1,
		SyncOnQuarantine: true,
		RestartCommand:   "while [ ! -e " + release + " ]; do sleep 0.01; done",
	})
	victim := rt.all[0]
	start := time.Now()
	for i := 0; i < restartAfter; i++ {
		victim.reportFailure(start.Add(time.Duration(i)*time.Hour), 1, time.Hour, time.Hour)
	}
	entry := func(at time.Duration) Transition {
		return Transition{Slice: 0, Replica: 0, URL: victim.url, From: StateHealthy, To: StateQuarantined,
			Reason: "probe-failures", At: start.Add(at)}
	}
	syncs := func() (out []Alert) {
		for _, al := range rt.Alerts() {
			if isAction(ActionSyncFromPeer)(al) {
				out = append(out, al)
			}
		}
		return out
	}

	// The first entry syncs, then blocks its worker in the hook.
	rt.remediate(entry(0))
	waitAlert(t, rt, "first sync", isAction(ActionSyncFromPeer))
	// Two more entries while the hook runs: each raises sync + restart.
	rt.remediate(entry(time.Second))
	rt.remediate(entry(2 * time.Second))
	time.Sleep(50 * time.Millisecond)
	if n := len(syncs()); n != 1 {
		t.Fatalf("%d syncs ran while the hook was busy, want 1", n)
	}
	if got := rt.m.actionsCoalesced.Load(); got != 2 {
		t.Fatalf("coalesced %d actions, want 2 (the second entry's sync and restart)", got)
	}

	if err := os.WriteFile(release, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(syncs()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("the sync raised while the hook ran never ran (alerts: %+v)", rt.Alerts())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if al := syncs()[1]; !al.Transition.At.Equal(start.Add(2 * time.Second)) {
		t.Fatalf("deferred sync answers %v, want the newest entry", al.Transition)
	}
	rt.Close()
	restarts := 0
	for _, al := range rt.Alerts() {
		if isAction(ActionRestart)(al) {
			restarts++
		}
	}
	if n := len(syncs()); n != 2 || restarts != 2 {
		t.Fatalf("%d syncs and %d restarts ran, want 2 each (first entry, newest entry)", n, restarts)
	}
}
