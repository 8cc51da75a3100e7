package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ahead/internal/cluster"
	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/server"
	"ahead/internal/ssb"
	"ahead/internal/storage"
)

const (
	fixtureSF     = 0.01
	fixtureSeed   = 1
	fixtureShards = 3
)

// fixture shares the expensive build - three shard databases plus the
// single-node reference - across the integration tests. Everything in
// it is read-only after construction.
var fixture struct {
	once    sync.Once
	err     error
	shardDB [fixtureShards]*exec.DB
	rows    [fixtureShards]int
	refDB   *exec.DB
	refRows int
}

func buildFixture(t *testing.T) {
	t.Helper()
	fixture.once.Do(func() {
		for i := 0; i < fixtureShards; i++ {
			suite, data, err := ssb.NewShardSuite(fixtureSF, fixtureSeed, 1,
				cluster.ShardSpec{Index: i, Count: fixtureShards}, storage.LargestCodeChooser)
			if err != nil {
				fixture.err = err
				return
			}
			fixture.shardDB[i] = suite.DB
			fixture.rows[i] = data.Lineorder.Rows()
		}
		suite, data, err := ssb.NewSuite(fixtureSF, fixtureSeed, 1)
		if err != nil {
			fixture.err = err
			return
		}
		fixture.refDB = suite.DB
		fixture.refRows = data.Lineorder.Rows()
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
}

// bootShards starts one HTTP server per shard over the shared
// databases and returns their base URLs.
func bootShards(t *testing.T) []string {
	t.Helper()
	buildFixture(t)
	urls := make([]string, fixtureShards)
	for i := 0; i < fixtureShards; i++ {
		srv, err := server.New(server.Config{
			DB:    fixture.shardDB[i],
			Shard: cluster.ShardSpec{Index: i, Count: fixtureShards},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

func bootRouter(t *testing.T, cfg cluster.RouterConfig) *httptest.Server {
	t.Helper()
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return ts
}

func postQuery(t *testing.T, base, query, mode string) (*cluster.RouterResponse, int) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"query": query, "mode": mode})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", query, mode, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read: %v", query, mode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	rr := new(cluster.RouterResponse)
	if err := json.Unmarshal(data, rr); err != nil {
		t.Fatalf("%s %s: decode: %v", query, mode, err)
	}
	return rr, resp.StatusCode
}

func sameRelation(a *ops.Result, keys [][]uint64, aggs []uint64) string {
	if a.Rows() != len(keys) || len(a.Aggs) != len(aggs) {
		return fmt.Sprintf("row count %d vs %d", a.Rows(), len(keys))
	}
	for i := range a.Keys {
		if len(a.Keys[i]) != len(keys[i]) {
			return fmt.Sprintf("row %d key width %d vs %d", i, len(a.Keys[i]), len(keys[i]))
		}
		for j := range a.Keys[i] {
			if a.Keys[i][j] != keys[i][j] {
				return fmt.Sprintf("row %d key[%d] %d vs %d", i, j, a.Keys[i][j], keys[i][j])
			}
		}
		if a.Aggs[i] != aggs[i] {
			return fmt.Sprintf("row %d agg %d vs %d", i, a.Aggs[i], aggs[i])
		}
	}
	return ""
}

// TestClusterDifferential is the acceptance gate: every SSB query,
// scattered over three shards and merged at the router, must reproduce
// the single-node result byte for byte, under softened and hardened
// modes alike, with full shard coverage and nothing detected.
func TestClusterDifferential(t *testing.T) {
	urls := bootShards(t)
	rts := bootRouter(t, cluster.RouterConfig{Shards: urls})

	// The partition is exact: shard row counts sum to the single-node
	// table, with every shard non-empty.
	total := 0
	for i, n := range fixture.rows {
		if n == 0 {
			t.Fatalf("shard %d holds no rows", i)
		}
		total += n
	}
	if total != fixture.refRows {
		t.Fatalf("shards hold %d rows, single node %d", total, fixture.refRows)
	}

	for _, mode := range []string{"unprotected", "early", "late", "continuous", "reencoding"} {
		m, err := exec.ParseMode(mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range ssb.QueryNames {
			want, _, err := exec.Run(fixture.refDB, m, ops.Scalar, ssb.Queries[name])
			if err != nil {
				t.Fatalf("%s %s reference: %v", name, mode, err)
			}
			got, status := postQuery(t, rts.URL, name, mode)
			if status != http.StatusOK {
				t.Fatalf("%s %s: status %d", name, mode, status)
			}
			if got.ShardsAnswered != fixtureShards || got.ShardsTotal != fixtureShards || got.Degraded {
				t.Fatalf("%s %s: coverage %d/%d degraded=%v, want full",
					name, mode, got.ShardsAnswered, got.ShardsTotal, got.Degraded)
			}
			if len(got.Detected) != 0 {
				t.Fatalf("%s %s: detections on clean data: %v", name, mode, got.Detected)
			}
			if diff := sameRelation(want, got.Keys, got.Aggs); diff != "" {
				t.Fatalf("%s %s: merged result diverges from single node: %s", name, mode, diff)
			}
		}
	}
}

// flipTransport corrupts one bit in the aggregate payload of every
// /partial response from one shard, re-serializing so the JSON
// envelope stays intact - the flip lives purely in the hardened data,
// as a memory error on the response path would.
type flipTransport struct {
	base   http.RoundTripper
	host   string // host:port of the corrupted shard
	bit    uint
	nFlips int
}

func (f *flipTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.base.RoundTrip(req)
	if err != nil || req.URL.Host != f.host || req.URL.Path != "/partial" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var p cluster.Partial
	if json.Unmarshal(data, &p) == nil && len(p.Aggs) > 0 {
		p.Aggs[0] ^= 1 << f.bit
		f.nFlips++
		if rewritten, merr := json.Marshal(&p); merr == nil {
			data = rewritten
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	resp.ContentLength = int64(len(data))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// TestClusterWireFlipAttribution plants a bit flip in shard 1's
// serialized partial and requires the router to detect it at the merge
// point and attribute it to that shard - while still answering from
// all shards.
func TestClusterWireFlipAttribution(t *testing.T) {
	urls := bootShards(t)
	ft := &flipTransport{
		base: http.DefaultTransport,
		host: strings.TrimPrefix(urls[1], "http://"),
		bit:  21,
	}
	rts := bootRouter(t, cluster.RouterConfig{
		Shards: urls,
		Client: &http.Client{Transport: ft},
	})

	got, status := postQuery(t, rts.URL, "Q2.1", "continuous")
	if status != http.StatusOK {
		t.Fatalf("status %d: a wire flip must degrade the value, not the query", status)
	}
	if ft.nFlips == 0 {
		t.Fatal("transport flipped nothing; test is vacuous")
	}
	if got.ShardsAnswered != fixtureShards {
		t.Fatalf("coverage %d/%d: a payload flip is a detection, not a shard failure",
			got.ShardsAnswered, got.ShardsTotal)
	}
	pos := got.Detected[cluster.ShardLogName(1, cluster.WireAggsCol)]
	if len(pos) != 1 || pos[0] != 0 {
		t.Fatalf("flip not attributed to shard 1 at the merge point: %v", got.Detected)
	}
	for name := range got.Detected {
		if !strings.HasPrefix(name, "shard1/") {
			t.Fatalf("detection leaked onto another shard: %v", got.Detected)
		}
	}

	// The same query through a clean router matches the single node
	// again - the corruption above changed a value, never silently.
	clean := bootRouter(t, cluster.RouterConfig{Shards: urls})
	want, _, err := exec.Run(fixture.refDB, exec.Continuous, ops.Scalar, ssb.Queries["Q2.1"])
	if err != nil {
		t.Fatal(err)
	}
	cleanGot, _ := postQuery(t, clean.URL, "Q2.1", "continuous")
	if diff := sameRelation(want, cleanGot.Keys, cleanGot.Aggs); diff != "" {
		t.Fatalf("clean rerun diverges: %s", diff)
	}
	if diff := sameRelation(want, got.Keys, got.Aggs); diff == "" {
		t.Fatal("corrupted merge matched the reference exactly; the dropped contribution should differ")
	}
}

// TestClusterDegradedOnShardLoss kills one shard and requires the
// router to quarantine it and keep answering - degraded, with explicit
// 2/3 coverage - instead of failing queries.
func TestClusterDegradedOnShardLoss(t *testing.T) {
	buildFixture(t)
	urls := make([]string, fixtureShards)
	var victims []*httptest.Server
	for i := 0; i < fixtureShards; i++ {
		srv, err := server.New(server.Config{
			DB:    fixture.shardDB[i],
			Shard: cluster.ShardSpec{Index: i, Count: fixtureShards},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		victims = append(victims, ts)
	}
	rts := bootRouter(t, cluster.RouterConfig{
		Shards:          urls,
		ProbeInterval:   20 * time.Millisecond,
		ProbeTimeout:    500 * time.Millisecond,
		QuarantineAfter: 2,
		BackoffBase:     time.Hour, // keep the dead shard out for the test's lifetime
		RequestTimeout:  10 * time.Second,
	})

	got, status := postQuery(t, rts.URL, "Q1.1", "continuous")
	if status != http.StatusOK || got.ShardsAnswered != fixtureShards {
		t.Fatalf("healthy cluster answered %d/%d (status %d)", got.ShardsAnswered, got.ShardsTotal, status)
	}
	want, _, err := exec.Run(fixture.refDB, exec.Continuous, ops.Scalar, ssb.Queries["Q1.1"])
	if err != nil {
		t.Fatal(err)
	}

	victims[2].CloseClientConnections()
	victims[2].Close()

	// The router quarantines the dead shard within a few probe
	// periods; queries keep succeeding throughout, full or degraded.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, status = postQuery(t, rts.URL, "Q1.1", "continuous")
		if status != http.StatusOK {
			t.Fatalf("query failed (status %d) during shard loss; must degrade instead", status)
		}
		if got.Degraded && got.ShardsAnswered == fixtureShards-1 && got.ShardsTotal == fixtureShards {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never degraded: %d/%d", got.ShardsAnswered, got.ShardsTotal)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Degraded results are the two live shards' exact contribution: a
	// strict subset of the full aggregate, never garbage.
	if diff := sameRelation(want, got.Keys, got.Aggs); diff == "" {
		t.Fatal("degraded result equals the full result; the lost shard's rows should be missing")
	}
	for i, agg := range got.Aggs {
		if agg == 0 {
			continue
		}
		found := false
		for j, w := range want.Aggs {
			if sameKey(want.Keys[j], got.Keys[i]) {
				found = true
				if agg > w {
					t.Fatalf("degraded group %v aggregate %d exceeds the full %d", got.Keys[i], agg, w)
				}
			}
		}
		if !found {
			t.Fatalf("degraded result invented group %v", got.Keys[i])
		}
	}

	// The router stays ready (one shard is enough) and, once the probe
	// loop accumulates the failure streak, reports the quarantine on
	// /metrics. The first degraded response can precede quarantine (a
	// single lost scatter already degrades that reply), so poll.
	resp, err := http.Get(rts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz during degraded service: %v (%v)", resp, err)
	}
	resp.Body.Close()
	for {
		mresp, err := http.Get(rts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		metrics, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if strings.Contains(string(metrics), `ahead_router_shard_up{shard="2",replica="0"} 0`) &&
			strings.Contains(string(metrics), `ahead_router_shard_up{shard="0",replica="0"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 2 never quarantined on /metrics:\n%s", metrics)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterReplicaTakeover is the self-healing acceptance gate: with
// two replicas per slice, killing one slice's primary must NOT degrade
// the cluster - the replica takes over (promoted by policy), every
// query keeps full 3/3 coverage with results byte-identical to the
// single-node reference, and the quarantine transition is recorded on
// /alerts.
func TestClusterReplicaTakeover(t *testing.T) {
	buildFixture(t)
	slices := make([][]string, fixtureShards)
	var primaries []*httptest.Server
	for i := 0; i < fixtureShards; i++ {
		var reps []string
		for r := 0; r < 2; r++ {
			// Replicas of one slice share the read-only fixture DB: the
			// same partition NewShardSuite would rebuild.
			srv, err := server.New(server.Config{
				DB:      fixture.shardDB[i],
				Shard:   cluster.ShardSpec{Index: i, Count: fixtureShards},
				Replica: r,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			reps = append(reps, ts.URL)
			if r == 0 {
				primaries = append(primaries, ts)
			}
		}
		slices[i] = reps
	}
	rts := bootRouter(t, cluster.RouterConfig{
		Slices:          slices,
		ProbeInterval:   20 * time.Millisecond,
		ProbeTimeout:    500 * time.Millisecond,
		QuarantineAfter: 2,
		BackoffBase:     time.Hour, // the dead primary stays out for the test's lifetime
		RequestTimeout:  10 * time.Second,
		HedgeDelay:      50 * time.Millisecond,
	})

	want, _, err := exec.Run(fixture.refDB, exec.Continuous, ops.Scalar, ssb.Queries["Q4.2"])
	if err != nil {
		t.Fatal(err)
	}
	got, status := postQuery(t, rts.URL, "Q4.2", "continuous")
	if status != http.StatusOK || got.Degraded || got.ShardsAnswered != fixtureShards {
		t.Fatalf("healthy replica cluster answered %d/%d degraded=%v (status %d)",
			got.ShardsAnswered, got.ShardsTotal, got.Degraded, status)
	}
	if diff := sameRelation(want, got.Keys, got.Aggs); diff != "" {
		t.Fatalf("replica cluster diverges from single node: %s", diff)
	}

	// Kill slice 1's primary. Every subsequent query must still answer
	// 3/3 and match the reference: the hedge covers the window before
	// quarantine, the replica covers everything after.
	primaries[1].CloseClientConnections()
	primaries[1].Close()

	deadline := time.Now().Add(15 * time.Second)
	promoted := false
	for !promoted {
		got, status = postQuery(t, rts.URL, "Q4.2", "continuous")
		if status != http.StatusOK {
			t.Fatalf("query failed (status %d) during primary loss; the replica must absorb it", status)
		}
		if got.Degraded || got.ShardsAnswered != fixtureShards {
			t.Fatalf("coverage dropped to %d/%d degraded=%v: primary loss with a live replica must not degrade",
				got.ShardsAnswered, got.ShardsTotal, got.Degraded)
		}
		if diff := sameRelation(want, got.Keys, got.Aggs); diff != "" {
			t.Fatalf("takeover result diverges from single node: %s", diff)
		}
		mresp, err := http.Get(rts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		metrics, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		promoted = strings.Contains(string(metrics), `ahead_router_slice_preferred_replica{shard="1"} 1`) &&
			strings.Contains(string(metrics), `ahead_router_shard_up{shard="1",replica="0"} 0`)
		if !promoted {
			if time.Now().After(deadline) {
				t.Fatalf("replica 1.1 never promoted:\n%s", metrics)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The transition and its remediation are on the alert history.
	aresp, err := http.Get(rts.URL + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	alerts, _ := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	body := string(alerts)
	if !strings.Contains(body, `"quarantined"`) || !strings.Contains(body, `"promote"`) {
		t.Fatalf("/alerts missing the takeover history: %s", body)
	}

	// Steady state after promotion: still byte-identical, still 3/3.
	got, status = postQuery(t, rts.URL, "Q4.2", "continuous")
	if status != http.StatusOK || got.Degraded || got.ShardsAnswered != fixtureShards {
		t.Fatalf("post-promotion coverage %d/%d degraded=%v (status %d)",
			got.ShardsAnswered, got.ShardsTotal, got.Degraded, status)
	}
	if diff := sameRelation(want, got.Keys, got.Aggs); diff != "" {
		t.Fatalf("post-promotion result diverges: %s", diff)
	}
	if len(got.Detected) != 0 {
		t.Fatalf("takeover produced detections on clean data: %v", got.Detected)
	}
}

func sameKey(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
