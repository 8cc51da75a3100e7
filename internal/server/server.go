// Package server is the hardened query-serving subsystem: an HTTP/JSON
// front end over one shared exec.DB that runs the prepared SSB flights
// and small ad-hoc scan/filter/group requests concurrently, under the
// paper's detection modes.
//
// The serving layer adds what a long-running database process needs on
// top of the query engine:
//
//   - Admission control: a bounded in-flight semaphore plus a bounded
//     wait queue. A full queue or a queue-timeout sheds the request
//     with 429 instead of letting load pile onto the pool (overload
//     degrades to fast rejections, never to OOM).
//   - Cancellation: each request carries a context assembled from the
//     client connection and the requested deadline, threaded through
//     exec.Run into the morsel scheduler. Workers observe it between
//     morsels, so a disconnect or deadline stops the query within one
//     morsel boundary and returns every scratch buffer.
//   - Self-healing: requests may opt into RunWithRecovery, surfacing
//     the structured RecoveryReport (attempts, repaired positions,
//     quarantined columns, degraded fallback) in the response.
//   - Observability and lifecycle: /healthz, /readyz, a hand-rolled
//     Prometheus /metrics endpoint, and a graceful drain that stops
//     admitting work while in-flight queries finish.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ahead/internal/adapt"
	"ahead/internal/cluster"
	"ahead/internal/exec"
	"ahead/internal/faults"
	"ahead/internal/ops"
	"ahead/internal/ssb"
)

// Config assembles a Server. DB is the only required field.
type Config struct {
	// DB is the shared database every request runs against.
	DB *exec.DB
	// Pool is the shared morsel pool; nil runs queries serially.
	Pool *exec.Pool
	// Queries maps prepared-query names to plans. Nil uses the SSB
	// registry (Q1.1–Q4.3).
	Queries map[string]exec.QueryFunc

	// MaxInFlight bounds concurrently executing queries (default 8).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot
	// (default 64). Requests beyond it are shed with 429.
	MaxQueue int
	// QueueTimeout bounds how long a request may wait for a slot
	// before being shed with 429 (default 1s).
	QueueTimeout time.Duration
	// DefaultDeadline applies when a request names none (default 10s);
	// MaxDeadline clamps requested deadlines (default 60s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// Shard identifies this server's slice of a multi-shard cluster;
	// the zero value means single-node. It only labels the partials
	// served on POST /partial - the DB must already hold the matching
	// partition (ssb.NewShardSuite).
	Shard cluster.ShardSpec
	// Replica identifies which replica of the shard's slice this
	// server is (0-based). It is informational - stamped on partials so
	// the router's logs and metrics can attribute hedged answers.
	Replica int

	// Injector enables POST /inject, which flips bits in hardened base
	// columns so detection can be observed end to end. Nil disables
	// the endpoint (production posture).
	Injector *faults.Injector
	// Adapt attaches an adaptive-hardening manager: query detections
	// feed its per-column signals, and GET /adapt/status + POST
	// /adapt/policy are served. Nil disables the endpoints. The caller
	// owns the manager's tick loop (adapt.Manager.Run).
	Adapt *adapt.Manager
}

// Server serves queries over HTTP. Create with New; it is safe for
// concurrent use by any number of connections.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	sem    chan struct{}
	queued atomic.Int64
	// drainMu orders request registration against Drain: a request
	// either registers in wg before the drain flag flips, or observes
	// the flag and is refused. Without it, wg.Add races wg.Wait.
	drainMu sync.Mutex
	drain   atomic.Bool
	wg      sync.WaitGroup
	metrics *metrics
	inject  *injector
}

// New validates the config, applies defaults, and builds the route
// table.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("server: config needs a DB")
	}
	if cfg.Queries == nil {
		cfg.Queries = ssb.Queries
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 8
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = time.Second
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 10 * time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 60 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		metrics: newMetrics(),
	}
	if cfg.Injector != nil {
		in, err := newInjector(cfg.DB, cfg.Injector)
		if err != nil {
			return nil, err
		}
		s.inject = in
	}
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /partial", s.handlePartial)
	s.mux.HandleFunc("POST /inject", s.handleInject)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /sync/digests", s.handleSyncDigests)
	s.mux.HandleFunc("GET /sync/chunk", s.handleSyncChunk)
	s.mux.HandleFunc("POST /sync/from-peer", s.handleSyncFromPeer)
	s.mux.HandleFunc("GET /adapt/status", s.handleAdaptStatus)
	s.mux.HandleFunc("POST /adapt/policy", s.handleAdaptPolicy)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops admitting queries (readyz flips to 503, new queries get
// 503) and waits for in-flight ones to finish or the context to
// expire. In-flight queries are not cancelled: they already hold a
// slot and complete under their own deadlines.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.drain.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// QueryRequest is the body of POST /query. Exactly one of Query
// (a prepared flight, e.g. "Q1.1") and AdHoc must be set.
type QueryRequest struct {
	Query  string         `json:"query,omitempty"`
	AdHoc  *ssb.AdHocSpec `json:"adhoc,omitempty"`
	Mode   string         `json:"mode,omitempty"`   // default "continuous"
	Flavor string         `json:"flavor,omitempty"` // default "blocked"
	// DeadlineMS bounds execution; 0 uses the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Heal runs under RunWithRecovery: detected base-column corruption
	// is repaired from the replica and the query retried.
	Heal bool `json:"heal,omitempty"`
}

// RecoveryInfo is the wire form of exec.RecoveryReport.
type RecoveryInfo struct {
	Attempts     int                 `json:"attempts"`
	Repaired     map[string][]uint64 `json:"repaired,omitempty"`
	Intermediate int                 `json:"intermediate,omitempty"`
	Quarantined  []string            `json:"quarantined,omitempty"`
	Degraded     bool                `json:"degraded,omitempty"`
	FinalMode    string              `json:"final_mode"`
}

// QueryResponse is the body of a successful POST /query.
type QueryResponse struct {
	Query  string `json:"query"`
	Mode   string `json:"mode"`
	Flavor string `json:"flavor"`
	Rows   int    `json:"rows"`
	// Keys and Aggs are the result relation; scalar results have one
	// row and no keys.
	Keys [][]uint64 `json:"keys,omitempty"`
	Aggs []uint64   `json:"aggs"`
	// Detected maps each column with detected corruption to the
	// affected positions (non-healing runs report and leave the data
	// in place; healing runs surface repairs in Recovery instead).
	Detected  map[string][]uint64 `json:"detected,omitempty"`
	Recovery  *RecoveryInfo       `json:"recovery,omitempty"`
	ElapsedMS float64             `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBytes bounds a /query or /inject body; ad-hoc specs are
// tiny, so anything near the cap is hostile.
const maxRequestBytes = 1 << 20

// decodeRequest parses a strict JSON body: unknown fields and trailing
// garbage are errors, so a typo ("mod": "dmr") cannot silently run
// under a default.
func decodeRequest(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after request object")
	}
	return nil
}

// resolve turns the request into a runnable plan, mode, and flavor.
// Every validation error surfaces here, before admission.
func (s *Server) resolve(req *QueryRequest) (name string, plan exec.QueryFunc, m exec.Mode, f ops.Flavor, status int, err error) {
	switch {
	case req.Query != "" && req.AdHoc != nil:
		return "", nil, 0, 0, http.StatusBadRequest, fmt.Errorf("set exactly one of query and adhoc")
	case req.Query != "":
		fn, ok := s.cfg.Queries[req.Query]
		if !ok {
			return "", nil, 0, 0, http.StatusNotFound, fmt.Errorf("unknown query %q", req.Query)
		}
		name, plan = req.Query, fn
	case req.AdHoc != nil:
		fn, cerr := ssb.CompileAdHoc(s.cfg.DB, *req.AdHoc)
		if cerr != nil {
			return "", nil, 0, 0, http.StatusBadRequest, cerr
		}
		name, plan = "adhoc", fn
	default:
		return "", nil, 0, 0, http.StatusBadRequest, fmt.Errorf("set exactly one of query and adhoc")
	}
	// The default is the strongest always-on detection variant; an
	// unknown mode is an error, never a silent unprotected run.
	m = exec.Continuous
	if req.Mode != "" {
		if m, err = exec.ParseMode(req.Mode); err != nil {
			return "", nil, 0, 0, http.StatusBadRequest, err
		}
	}
	f = ops.Blocked
	if req.Flavor != "" {
		if f, err = ops.ParseFlavor(req.Flavor); err != nil {
			return "", nil, 0, 0, http.StatusBadRequest, err
		}
	}
	return name, plan, m, f, 0, nil
}

// deadline clamps the requested deadline into (0, MaxDeadline].
func (s *Server) deadline(req *QueryRequest) (time.Duration, error) {
	if req.DeadlineMS < 0 {
		return 0, fmt.Errorf("negative deadline_ms")
	}
	d := time.Duration(req.DeadlineMS) * time.Millisecond
	if d == 0 {
		d = s.cfg.DefaultDeadline
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d, nil
}

// admit applies admission control: join the bounded wait queue, then
// wait for an execution slot until the queue timeout or the request
// context fires. It returns a release func on success and a shed
// status (429, or 499-style context error) otherwise.
func (s *Server) admit(ctx context.Context) (release func(), status int, err error) {
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return nil, http.StatusTooManyRequests, fmt.Errorf("wait queue full (%d)", s.cfg.MaxQueue)
	}
	defer s.queued.Add(-1)
	t := time.NewTimer(s.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, nil
	case <-t.C:
		return nil, http.StatusTooManyRequests, fmt.Errorf("queue timeout after %v", s.cfg.QueueTimeout)
	case <-ctx.Done():
		return nil, statusForCtx(ctx.Err()), ctx.Err()
	}
}

// statusForCtx maps a context error on the serving path to an HTTP
// status: deadline → 504, client disconnect → 499 (nginx convention;
// the client is gone, the code is for the access log and metrics).
func statusForCtx(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return 499
}

// enter registers an in-flight request unless the server is draining.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.drain.Load() {
		return false
	}
	s.wg.Add(1)
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	serve(s, w, r, true, s.run, func(resp *QueryResponse, ms float64) { resp.ElapsedMS = ms })
}

// handlePartial serves one shard's contribution to a scatter-gather
// query: the same admission, deadline, and cancellation pipeline as
// /query, but the response is a cluster.Partial - group keys and
// aggregate sums still AN-hardened, decoded and verified only at the
// router's merge point. Healing is a whole-query concern and not
// meaningful per shard, so heal requests are rejected here.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	serve(s, w, r, false, s.runPartial, func(part *cluster.Partial, ms float64) { part.ElapsedMS = ms })
}

// serve is the one request pipeline of /query and /partial: decode,
// refuse a heal request unless heal is set, resolve, deadline, admit,
// then time run and classify its outcome. stamp writes the run's
// elapsed time into a successful response.
func serve[T any](s *Server, w http.ResponseWriter, r *http.Request, heal bool,
	run func(ctx context.Context, name string, plan exec.QueryFunc, mode exec.Mode, flavor ops.Flavor, req *QueryRequest) (T, error),
	stamp func(resp T, elapsedMS float64)) {
	if !s.enter() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.wg.Done()

	var req QueryRequest
	if err := decodeRequest(r, &req); err != nil {
		s.metrics.failed.Add(1)
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if req.Heal && !heal {
		s.metrics.failed.Add(1)
		writeError(w, http.StatusBadRequest, "heal is not supported on /partial")
		return
	}
	name, plan, mode, flavor, status, err := s.resolve(&req)
	if err != nil {
		s.metrics.failed.Add(1)
		writeError(w, status, "%v", err)
		return
	}
	d, err := s.deadline(&req)
	if err != nil {
		s.metrics.failed.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The request context already ends on client disconnect; the
	// deadline bounds execution on top of that.
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()

	release, status, err := s.admit(ctx)
	if err != nil {
		if status == http.StatusTooManyRequests {
			s.metrics.shed.Add(1)
		} else {
			s.metrics.canceled.Add(1)
		}
		writeError(w, status, "%v", err)
		return
	}
	defer release()

	start := time.Now()
	resp, runErr := run(ctx, name, plan, mode, flavor, &req)
	elapsed := time.Since(start)
	s.metrics.latency.observe(elapsed)

	if runErr != nil {
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			s.metrics.canceled.Add(1)
			writeError(w, statusForCtx(ctx.Err()), "query cancelled: %v", runErr)
			return
		}
		s.metrics.failed.Add(1)
		writeError(w, http.StatusInternalServerError, "query failed: %v", runErr)
		return
	}
	stamp(resp, float64(elapsed.Microseconds())/1e3)
	s.metrics.served.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// runOpts returns the exec options of one request: its context and the
// server's morsel pool, if any.
func (s *Server) runOpts(ctx context.Context) []exec.RunOption {
	opts := []exec.RunOption{exec.WithContext(ctx)}
	if s.cfg.Pool != nil {
		opts = append(opts, exec.WithPool(s.cfg.Pool))
	}
	return opts
}

// detected counts a run's detections and returns them per column - nil
// when the log is empty - after noting them for the adaptive controller.
func (s *Server) detected(log *ops.ErrorLog) (map[string][]uint64, error) {
	if log.Count() == 0 {
		return nil, nil
	}
	s.metrics.detected.Add(uint64(log.Count()))
	out := make(map[string][]uint64)
	for _, col := range log.Columns() {
		pos, err := log.Positions(col)
		if err != nil {
			return nil, err
		}
		out[col] = pos
	}
	s.noteDetections(out)
	return out, nil
}

// runPartial executes the plan with the pre-softening aggregate state
// captured and hardens it for the wire. The shard's own error log
// rides along so in-shard detections reach the merged response.
func (s *Server) runPartial(ctx context.Context, name string, plan exec.QueryFunc, mode exec.Mode, flavor ops.Flavor, _ *QueryRequest) (*cluster.Partial, error) {
	var capture exec.Capture
	_, log, err := exec.Run(s.cfg.DB, mode, flavor, plan, append(s.runOpts(ctx), exec.WithCapture(&capture))...)
	if err != nil {
		return nil, err
	}
	part, err := cluster.EncodePartial(name, mode.String(), flavor.String(), s.cfg.Shard, capture.Groups, capture.Aggs)
	if err != nil {
		return nil, err
	}
	part.Replica = s.cfg.Replica
	if part.Detected, err = s.detected(log); err != nil {
		return nil, err
	}
	return part, nil
}

// run executes the resolved plan and shapes the response. Healing
// requests go through RunWithRecovery; plain ones through exec.Run
// with the per-run error log marshalled per column.
func (s *Server) run(ctx context.Context, name string, plan exec.QueryFunc, mode exec.Mode, flavor ops.Flavor, req *QueryRequest) (*QueryResponse, error) {
	resp := &QueryResponse{Query: name, Mode: mode.String(), Flavor: flavor.String()}
	if req.Heal {
		res, rep, err := exec.RunWithRecovery(s.cfg.DB, mode, flavor, plan,
			exec.WithDegradedFallback(true), exec.WithRecoveryRunOptions(s.runOpts(ctx)...))
		if err != nil {
			return nil, err
		}
		if rep.Attempts > 1 {
			s.metrics.repairRetries.Add(uint64(rep.Attempts - 1))
		}
		s.metrics.detected.Add(uint64(rep.RepairedCount() + rep.Intermediate))
		s.noteDetections(rep.Repaired)
		resp.Recovery = &RecoveryInfo{
			Attempts:     rep.Attempts,
			Repaired:     rep.Repaired,
			Intermediate: rep.Intermediate,
			Quarantined:  rep.Quarantined,
			Degraded:     rep.Degraded,
			FinalMode:    rep.FinalMode.String(),
		}
		resp.Keys, resp.Aggs, resp.Rows = res.Keys, res.Aggs, res.Rows()
		return resp, nil
	}

	res, log, err := exec.Run(s.cfg.DB, mode, flavor, plan, s.runOpts(ctx)...)
	if err != nil {
		return nil, err
	}
	if resp.Detected, err = s.detected(log); err != nil {
		return nil, err
	}
	resp.Keys, resp.Aggs, resp.Rows = res.Keys, res.Aggs, res.Rows()
	return resp, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.drain.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}
