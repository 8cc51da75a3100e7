package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ahead/internal/exec"
	"ahead/internal/faults"
	"ahead/internal/ops"
	"ahead/internal/ssb"
	"ahead/internal/storage"
)

// ssbFixture builds the shared clean SSB suite once; tests that
// corrupt data build their own.
var (
	ssbOnce  sync.Once
	ssbSuite *ssb.Suite
	ssbErr   error
)

func cleanSuite(t *testing.T) *ssb.Suite {
	t.Helper()
	ssbOnce.Do(func() {
		ssbSuite, _, ssbErr = ssb.NewSuite(0.002, 7, 1)
	})
	if ssbErr != nil {
		t.Fatal(ssbErr)
	}
	return ssbSuite
}

// tinyDB is a two-column table for tests that need custom plans
// (admission, cancellation, fuzzing) without the SSB build cost.
func tinyDB(t testing.TB) *exec.DB {
	t.Helper()
	tb := storage.NewTable("t")
	v, err := storage.NewColumn("v", storage.TinyInt)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.NewColumn("w", storage.Int)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 256; i++ {
		v.Append(i % 50)
		w.Append(i * 3)
	}
	for _, c := range []*storage.Column{v, w} {
		if err := tb.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	db, err := exec.NewDB([]*storage.Table{tb}, storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// sumPlan sums w where v in [10, 19] — a real plan over tinyDB that
// exercises filter/gather/sum under every mode.
func sumPlan(q *exec.Query) (*ops.Result, error) {
	vCol, err := q.Col("t", "v")
	if err != nil {
		return nil, err
	}
	sel, err := ops.Filter(vCol, 10, 19, q.Opts())
	if err != nil {
		return nil, err
	}
	wCol, err := q.Col("t", "w")
	if err != nil {
		return nil, err
	}
	vec, err := ops.Gather(wCol, sel, q.Opts())
	if err != nil {
		return nil, err
	}
	sum, err := ops.SumTotal(q.PreAggregate(vec), q.Opts())
	if err != nil {
		return nil, err
	}
	return q.FinishScalar(sum)
}

func postQuery(t *testing.T, url string, req QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeResponse(t *testing.T, data []byte) QueryResponse {
	t.Helper()
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("decode response: %v\n%s", err, data)
	}
	return qr
}

func TestServePreparedMatchesEngine(t *testing.T) {
	suite := cleanSuite(t)
	srv, err := New(Config{DB: suite.DB})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	plan := ssb.Queries["Q1.1"]
	want, log, err := exec.Run(suite.DB, exec.Continuous, ops.Scalar, plan)
	if err != nil {
		t.Fatal(err)
	}
	if log.Count() != 0 {
		t.Fatalf("clean data logged %d detections", log.Count())
	}

	resp, data := postQuery(t, ts.URL, QueryRequest{Query: "Q1.1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	qr := decodeResponse(t, data)
	if qr.Mode != exec.Continuous.String() || qr.Flavor != "blocked" {
		t.Fatalf("defaults not applied: mode %q flavor %q", qr.Mode, qr.Flavor)
	}
	if !reflect.DeepEqual(qr.Aggs, want.Aggs) || qr.Rows != want.Rows() {
		t.Fatalf("served result diverges from engine: %v vs %v", qr.Aggs, want.Aggs)
	}
	if len(qr.Detected) != 0 {
		t.Fatalf("clean run reported detections: %v", qr.Detected)
	}

	// The scalar kernels stay one request field away.
	resp, data = postQuery(t, ts.URL, QueryRequest{Query: "Q1.1", Flavor: "scalar"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if sr := decodeResponse(t, data); sr.Flavor != "scalar" || !reflect.DeepEqual(sr.Aggs, want.Aggs) {
		t.Fatalf("explicit scalar flavor: flavor %q, aggs %v vs %v", sr.Flavor, sr.Aggs, want.Aggs)
	}
}

func TestServeAdHocMatchesEngine(t *testing.T) {
	suite := cleanSuite(t)
	srv, err := New(Config{DB: suite.DB})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := ssb.AdHocSpec{
		Table: "lineorder", Agg: "sum", AggCol: "lo_revenue",
		Preds:   []ssb.AdHocPred{{Col: "lo_quantity", Lo: 10, Hi: 30}},
		GroupBy: []string{"lo_discount"},
	}
	plan, err := ssb.CompileAdHoc(suite.DB, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := exec.Run(suite.DB, exec.LateOnetime, ops.Blocked, plan)
	if err != nil {
		t.Fatal(err)
	}

	resp, data := postQuery(t, ts.URL, QueryRequest{AdHoc: &spec, Mode: "late", Flavor: "blocked"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	qr := decodeResponse(t, data)
	if !reflect.DeepEqual(qr.Aggs, want.Aggs) || !reflect.DeepEqual(qr.Keys, want.Keys) {
		t.Fatalf("ad-hoc result diverges from engine")
	}
}

func TestRequestValidation(t *testing.T) {
	suite := cleanSuite(t)
	srv, err := New(Config{DB: suite.DB})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"garbage", `{"query": `, http.StatusBadRequest},
		{"unknown field", `{"query":"Q1.1","mod":"dmr"}`, http.StatusBadRequest},
		{"trailing data", `{"query":"Q1.1"}{"query":"Q1.2"}`, http.StatusBadRequest},
		{"neither", `{}`, http.StatusBadRequest},
		{"both", `{"query":"Q1.1","adhoc":{"table":"lineorder","agg":"count"}}`, http.StatusBadRequest},
		{"unknown query", `{"query":"Q9.9"}`, http.StatusNotFound},
		{"unknown mode", `{"query":"Q1.1","mode":"unprotectedd"}`, http.StatusBadRequest},
		{"unknown flavor", `{"query":"Q1.1","flavor":"simd"}`, http.StatusBadRequest},
		{"negative deadline", `{"query":"Q1.1","deadline_ms":-5}`, http.StatusBadRequest},
		{"bad adhoc table", `{"adhoc":{"table":"nope","agg":"count"}}`, http.StatusBadRequest},
		{"bad adhoc agg", `{"adhoc":{"table":"lineorder","agg":"median"}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestConcurrentSessionsMatchSerialReference is the subsystem's
// correctness gate: many concurrent clients over one shared corrupted
// DB, pool-parallel execution, and every response's detected-error set
// must equal the serial single-threaded reference for its query.
func TestConcurrentSessionsMatchSerialReference(t *testing.T) {
	suite, _, err := ssb.NewSuite(0.002, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Plant corruption in columns every flight touches (the date FK)
	// plus the Q1 measure columns, then freeze: detection never
	// mutates, so the reference stays valid for the whole test.
	in := faults.NewInjector(99)
	hard := suite.DB.Hardened("lineorder")
	for _, colName := range []string{"lo_orderdate", "lo_discount", "lo_extendedprice", "lo_quantity"} {
		col, err := hard.Column(colName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.FlipRandom(col, 3, 2); err != nil {
			t.Fatal(err)
		}
	}

	queries := []string{"Q1.1", "Q1.2", "Q1.3", "Q2.1", "Q3.1", "Q4.1"}
	type reference struct {
		res      *ops.Result
		detected map[string][]uint64
	}
	refs := make(map[string]reference)
	for _, name := range queries {
		plan := ssb.Queries[name]
		res, log, err := exec.Run(suite.DB, exec.Continuous, ops.Scalar, plan)
		if err != nil {
			t.Fatal(err)
		}
		det := make(map[string][]uint64)
		for _, col := range log.Columns() {
			pos, err := log.Positions(col)
			if err != nil {
				t.Fatal(err)
			}
			det[col] = pos
		}
		refs[name] = reference{res: res, detected: det}
	}

	pool := exec.NewPool(4)
	defer pool.Close()
	srv, err := New(Config{DB: suite.DB, Pool: pool, MaxInFlight: 8, MaxQueue: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const clients = 8
	const perClient = 12
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				name := queries[(c+i)%len(queries)]
				body, _ := json.Marshal(QueryRequest{Query: name})
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", name, resp.StatusCode, data)
					return
				}
				var qr QueryResponse
				if err := json.Unmarshal(data, &qr); err != nil {
					errs <- fmt.Errorf("%s: %v", name, err)
					return
				}
				ref := refs[name]
				if !reflect.DeepEqual(qr.Aggs, ref.res.Aggs) || !reflect.DeepEqual(qr.Keys, ref.res.Keys) {
					errs <- fmt.Errorf("%s: result diverges from serial reference", name)
					return
				}
				got := qr.Detected
				if got == nil {
					got = map[string][]uint64{}
				}
				if len(ref.detected) != len(got) || !reflect.DeepEqual(map[string][]uint64(got), ref.detected) {
					errs <- fmt.Errorf("%s: detected %v, want %v", name, got, ref.detected)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// gatedQueries returns a query registry with a plan that blocks until
// the gate closes — the tool for admission and drain tests.
func gatedQueries(gate chan struct{}) map[string]exec.QueryFunc {
	return map[string]exec.QueryFunc{
		"slow": func(q *exec.Query) (*ops.Result, error) {
			ctx := q.Opts().Ctx
			select {
			case <-gate:
				return &ops.Result{Aggs: []uint64{1}}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
		"sum": sumPlan,
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	gate := make(chan struct{})
	srv, err := New(Config{
		DB: tinyDB(t), Queries: gatedQueries(gate),
		MaxInFlight: 1, MaxQueue: 2, QueueTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const n = 6
	statuses := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/query", "application/json",
				strings.NewReader(`{"query":"slow"}`))
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	time.Sleep(150 * time.Millisecond) // let the queue fill and time out
	close(gate)
	wg.Wait()
	close(statuses)

	counts := map[int]int{}
	for s := range statuses {
		counts[s]++
	}
	if counts[http.StatusOK] < 1 {
		t.Fatalf("no request served: %v", counts)
	}
	if counts[http.StatusTooManyRequests] < 1 {
		t.Fatalf("overload did not shed: %v", counts)
	}
	if counts[http.StatusOK]+counts[http.StatusTooManyRequests] != n {
		t.Fatalf("unexpected statuses under overload: %v", counts)
	}
}

func TestDeadlineCancelsQuery(t *testing.T) {
	gate := make(chan struct{}) // never closed: the query only ends via ctx
	defer close(gate)
	srv, err := New(Config{DB: tinyDB(t), Queries: gatedQueries(gate)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, data := postQuery(t, ts.URL, QueryRequest{Query: "slow", DeadlineMS: 50})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
	if got := srv.metrics.canceled.Load(); got != 1 {
		t.Fatalf("canceled counter %d, want 1", got)
	}
}

func TestClientDisconnectCancelsQuery(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	srv, err := New(Config{DB: tinyDB(t), Queries: gatedQueries(gate)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query",
		strings.NewReader(`{"query":"slow"}`))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("cancelled request returned a response")
	}
	// The handler observes the disconnect asynchronously; wait for the
	// canceled counter rather than racing it.
	deadline := time.Now().Add(2 * time.Second)
	for srv.metrics.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the disconnect cancellation")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDrainStopsAdmissionAndWaits(t *testing.T) {
	gate := make(chan struct{})
	srv, err := New(Config{DB: tinyDB(t), Queries: gatedQueries(gate)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "application/json",
			strings.NewReader(`{"query":"slow"}`))
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	// Wait until the request holds its slot.
	for len(srv.sem) == 0 {
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	for !srv.drain.Load() {
		time.Sleep(time.Millisecond)
	}

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz during drain: %d", resp.StatusCode)
		}
	}
	if resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"query":"sum"}`)); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("query during drain: %d", resp.StatusCode)
		}
	}

	close(gate)
	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("in-flight request finished %d during drain, want 200", status)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestHealSurfacesRecovery(t *testing.T) {
	suite, _, err := ssb.NewSuite(0.002, 13, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := faults.NewInjector(5)
	col, err := suite.DB.Hardened("lineorder").Column("lo_discount")
	if err != nil {
		t.Fatal(err)
	}
	flipped, err := in.FlipRandom(col, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New(Config{DB: suite.DB})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, data := postQuery(t, ts.URL, QueryRequest{Query: "Q1.1", Heal: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	qr := decodeResponse(t, data)
	if qr.Recovery == nil {
		t.Fatal("healing run returned no recovery report")
	}
	if len(flipped) > 0 && qr.Recovery.Attempts < 2 && len(qr.Recovery.Repaired) == 0 {
		t.Fatalf("corruption present but nothing repaired: %+v", qr.Recovery)
	}
	// The heal must actually hold: a follow-up plain run is clean.
	resp, data = postQuery(t, ts.URL, QueryRequest{Query: "Q1.1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-heal status %d: %s", resp.StatusCode, data)
	}
	if qr := decodeResponse(t, data); len(qr.Detected) != 0 {
		t.Fatalf("detections survived healing: %v", qr.Detected)
	}
}

func TestInjectEndpoint(t *testing.T) {
	suite, _, err := ssb.NewSuite(0.002, 17, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DB: suite.DB, Injector: faults.NewInjector(3)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/inject", "application/json",
		strings.NewReader(`{"col":"lo_discount","count":2}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inject status %d: %s", resp.StatusCode, data)
	}
	var ir InjectResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Col != "lo_discount" || len(ir.Positions) != 2 {
		t.Fatalf("unexpected inject response: %+v", ir)
	}

	// A hardened query over the corrupted column must detect at the
	// injected positions (weight-2 flips off a valid code word).
	resp2, data2 := postQuery(t, ts.URL, QueryRequest{Query: "Q1.1"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, data2)
	}
	qr := decodeResponse(t, data2)
	if len(qr.Detected) == 0 {
		t.Fatalf("no detections after injecting into lo_discount")
	}

	// Disabled posture: no injector, endpoint refuses.
	off, err := New(Config{DB: suite.DB})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(off)
	defer ts2.Close()
	resp3, err := http.Post(ts2.URL+"/inject", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusForbidden {
		t.Fatalf("disabled inject status %d, want 403", resp3.StatusCode)
	}
}

func TestMetricsExposition(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	srv, err := New(Config{DB: tinyDB(t), Queries: map[string]exec.QueryFunc{"sum": sumPlan}, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, data := postQuery(t, ts.URL, QueryRequest{Query: "sum"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		"ahead_queries_served_total 3",
		"ahead_queries_shed_total 0",
		"ahead_query_latency_seconds_count 3",
		"ahead_pool_queue_depth",
		"ahead_scratch_live_buffers",
		"ahead_goroutines",
		`ahead_query_latency_seconds_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerNoScratchLeak: a burst of served, shed, and cancelled
// requests must leave the scratch arena balanced — the serving-layer
// face of the pool-shutdown leak fix.
func TestServerNoScratchLeak(t *testing.T) {
	suite := cleanSuite(t)
	pool := exec.NewPool(4)
	defer pool.Close()
	gateQs := map[string]exec.QueryFunc{"sum": sumPlan}
	for name, fn := range ssb.Queries {
		gateQs[name] = fn
	}
	srv, err := New(Config{DB: suite.DB, Queries: gateQs, Pool: pool, MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	before := ops.LiveScratch()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				req := QueryRequest{Query: "Q1.1"}
				if i%2 == 1 {
					req.Query = "Q3.1"
					req.DeadlineMS = 1 // near-certain cancellation mid-plan
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	if got := ops.LiveScratch(); got != before {
		t.Fatalf("scratch leak across serving burst: %d live before, %d after", before, got)
	}
}

// TestStorageBytesGauge reads the resident copies: the TMR replica
// reports 0 until a TMR query builds it, then the DMR replica's size.
func TestStorageBytesGauge(t *testing.T) {
	db := tinyDB(t)
	srv, err := New(Config{DB: db, Queries: map[string]exec.QueryFunc{"sum": sumPlan}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return string(data)
	}
	res := db.ResidentBytes()
	text := scrape()
	for _, want := range []string{
		fmt.Sprintf(`ahead_storage_bytes{copy="plain"} %d`, res.Plain),
		fmt.Sprintf(`ahead_storage_bytes{copy="dmr"} %d`, res.DMR),
		`ahead_storage_bytes{copy="tmr"} 0`,
		fmt.Sprintf(`ahead_storage_bytes{copy="hardened"} %d`, res.Hardened),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if resp, data := postQuery(t, ts.URL, QueryRequest{Query: "sum", Mode: "tmr"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("TMR query: status %d: %s", resp.StatusCode, data)
	}
	if want := fmt.Sprintf(`ahead_storage_bytes{copy="tmr"} %d`, res.DMR); !strings.Contains(scrape(), want) {
		t.Errorf("after a TMR query, metrics miss %q", want)
	}
}
