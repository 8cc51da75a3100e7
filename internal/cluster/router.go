package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RouterConfig assembles a Router. Exactly one of Slices and Shards is
// required.
type RouterConfig struct {
	// Slices lists the replica sets, one per hash slice, in slice
	// order: Slices[i] holds the base URLs of every ahead-serve
	// instance serving slice i, preferred (primary) first.
	Slices [][]string
	// Shards is the single-replica shorthand: one URL per slice.
	// Ignored when Slices is set.
	Shards []string
	// Client performs shard requests; nil uses a plain http.Client
	// (timeouts come from per-request contexts, not the client).
	Client *http.Client

	// RequestTimeout bounds one scatter request to one replica
	// (default 30s); the shard's own deadline applies underneath.
	RequestTimeout time.Duration
	// ProbeInterval is the health-probe period (default 500ms);
	// ProbeTimeout bounds one probe (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// QuarantineAfter is the consecutive-failure threshold that
	// quarantines a replica (default 3). BackoffBase/BackoffMax shape
	// the exponential re-admission backoff (defaults 2s / 30s).
	QuarantineAfter int
	BackoffBase     time.Duration
	BackoffMax      time.Duration
	// RecoverAfter is the consecutive-success streak that decays one
	// backoff level once a replica is back (default 3) - a flapper
	// keeps escalating, only sustained health earns the base window
	// back.
	RecoverAfter int

	// HedgeDelay is how long the scatter waits on a slice's preferred
	// replica before duplicating the request to the next one (first
	// valid partial wins, the loser is canceled). 0 uses the default
	// 100ms; negative disables hedging. A quarantined or shedding
	// preferred replica is bypassed immediately regardless.
	HedgeDelay time.Duration

	// RestartCommand is the optional shell hook the restart action
	// runs, with AHEAD_SHARD_URL/AHEAD_SLICE/AHEAD_REPLICA in the
	// environment, once a replica has run through restartAfter
	// quarantine windows - and again on every later window it stays
	// down for. Empty disables the restart action.
	RestartCommand string
	// SyncOnQuarantine turns on the sync-from-peer action: every
	// quarantine entry with a healthy peer orders the victim to pull
	// its hardened columns level with that peer.
	SyncOnQuarantine bool
}

// Router is the scatter-gather front end of a replicated shard
// cluster: it fans each query out to every slice's preferred replica
// (hedging to peers on delay, shed, or failure), verifies and decodes
// the hardened partials at the merge point (Merger), and answers with
// the cluster-wide result. Replica health is watched continuously and
// every health event is remediated by one rule set (decide):
// quarantines promote a peer, trigger an immediate reprobe, optionally
// sync from a peer or run a restart hook, and always raise structured
// alerts. Only a slice with no live replica degrades the response -
// explicit in shards_answered/shards_total.
type Router struct {
	cfg    RouterConfig
	mux    *http.ServeMux
	slices []*sliceState
	all    []*shardState // flattened, for probes, /inject and /metrics
	client *http.Client
	m      routerMetrics
	rr     atomic.Uint64 // round-robin cursor for /inject

	alerts alertRing
	events chan Transition

	// life ends when Close is called: it stops the probe and
	// remediation loops (done) and cancels the replica workers' hooks
	// and syncs (workers).
	life    context.Context
	cancel  context.CancelFunc
	done    sync.WaitGroup
	workers sync.WaitGroup
}

// sliceState is one hash slice's replica set plus the scatter
// preference the promote action steers.
type sliceState struct {
	index     int
	replicas  []*shardState
	preferred atomic.Int32
}

// healthyOrder returns the slice's healthy replicas, preferred first,
// wrapping in replica order - the order scatterSlice contacts them in.
func (sl *sliceState) healthyOrder() []*shardState {
	n := len(sl.replicas)
	pref := int(sl.preferred.Load()) % n
	out := make([]*shardState, 0, n)
	for i := 0; i < n; i++ {
		if s := sl.replicas[(pref+i)%n]; s.Healthy() {
			out = append(out, s)
		}
	}
	return out
}

type routerMetrics struct {
	served        atomic.Uint64
	failed        atomic.Uint64
	degraded      atomic.Uint64
	detected      atomic.Uint64
	shardsFailed  atomic.Uint64
	shardsShed    atomic.Uint64
	hedges        atomic.Uint64
	hedgeWins     atomic.Uint64
	hedgeDups     atomic.Uint64
	eventsDropped atomic.Uint64
	// actionsCoalesced counts restart and sync actions that replaced a
	// waiting action of the same kind while the replica's worker was busy.
	actionsCoalesced atomic.Uint64

	transitions     [2]atomic.Uint64                // by destination HealthState
	actions         [len(actionKinds)]atomic.Uint64 // by actionKinds index
	remediationErrs atomic.Uint64
}

// NewRouter validates the config, builds the route table, and starts
// the health-probe and remediation loops. Callers must Close the
// router to stop them.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Slices) == 0 {
		for _, u := range cfg.Shards {
			cfg.Slices = append(cfg.Slices, []string{u})
		}
	}
	if len(cfg.Slices) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one slice")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 2 * time.Second
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 30 * time.Second
	}
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = 3
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 100 * time.Millisecond
	}
	rt := &Router{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		client: cfg.Client,
		events: make(chan Transition, 64),
	}
	rt.life, rt.cancel = context.WithCancel(context.Background())
	for i, urls := range cfg.Slices {
		if len(urls) == 0 {
			return nil, fmt.Errorf("cluster: slice %d has no replica URLs", i)
		}
		sl := &sliceState{index: i}
		for r, u := range urls {
			s := newShardState(i, r, strings.TrimRight(u, "/"))
			sl.replicas = append(sl.replicas, s)
			rt.all = append(rt.all, s)
		}
		rt.slices = append(rt.slices, sl)
	}
	rt.mux.HandleFunc("POST /query", rt.handleQuery)
	rt.mux.HandleFunc("POST /inject", rt.handleInject)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /alerts", rt.handleAlerts)
	rt.done.Add(2)
	go rt.probeLoop()
	go rt.remediationLoop()
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Close stops the health-probe and remediation loops, cancels the
// replica workers' restart hooks and syncs and waits for the workers.
// In-flight requests finish under their own contexts.
func (rt *Router) Close() {
	rt.cancel()
	rt.done.Wait()
	rt.workers.Wait()
}

// Alerts returns the retained alert history (oldest first) - the same
// view GET /alerts serves.
func (rt *Router) Alerts() []Alert { return rt.alerts.recent() }

// noteSuccess records a healthy probe or request and feeds any
// re-admission transition to remediation.
func (rt *Router) noteSuccess(s *shardState, reason string) {
	now := time.Now()
	if s.reportSuccess(now, rt.cfg.RecoverAfter) {
		rt.emit(Transition{
			Slice: s.slice, Replica: s.replica, URL: s.url,
			From: StateQuarantined, To: StateHealthy, Reason: reason, At: now,
		})
	}
}

// noteFailure records a failed probe or request and feeds any
// quarantine entry or window extension to remediation.
func (rt *Router) noteFailure(s *shardState, reason string) {
	now := time.Now()
	entered, extended := s.reportFailure(now, rt.cfg.QuarantineAfter, rt.cfg.BackoffBase, rt.cfg.BackoffMax)
	from := StateHealthy
	if extended {
		// At most one extension per replica waits in the queue, so a
		// replica that stays down for windows shorter than its
		// remediation (a slow restart hook) cannot crowd out the
		// events of other replicas.
		if !s.extensionQueued.CompareAndSwap(false, true) {
			return
		}
		from = StateQuarantined
	} else if !entered {
		return
	}
	if !rt.emit(Transition{
		Slice: s.slice, Replica: s.replica, URL: s.url,
		From: from, To: StateQuarantined, Reason: reason, At: now,
	}) && extended {
		s.extensionQueued.Store(false)
	}
}

// emit hands a transition to the remediation loop without ever
// blocking the serving or probe path; overflow is counted, not waited
// on. It reports whether the transition was queued.
func (rt *Router) emit(tr Transition) bool {
	select {
	case rt.events <- tr:
		return true
	default:
		rt.m.eventsDropped.Add(1)
		return false
	}
}

// remediationLoop remediates health events one at a time, in the
// order the probe and serving paths emitted them.
func (rt *Router) remediationLoop() {
	defer rt.done.Done()
	for {
		select {
		case <-rt.life.Done():
			return
		case tr := <-rt.events:
			rt.remediate(tr)
		}
	}
}

// remediate handles one health event: count and alert a state change
// (a window extension is neither), run decide over a snapshot of the
// slice, apply promote and reprobe inline and hand restart and sync -
// which take up to restartCommandTimeout and syncFromPeerTimeout - to
// the replica's worker (dispatch), so no slice's promote waits behind
// another replica's hook. Every action is alerted when it completes; a
// promote that changes nothing stays silent; a failed action is
// alerted with its error and counted, never fatal - remediation is
// best-effort by design.
func (rt *Router) remediate(tr Transition) {
	sl := rt.slices[tr.Slice]
	if tr.From == tr.To {
		sl.replicas[tr.Replica].extensionQueued.Store(false)
	} else {
		rt.m.transitions[tr.To].Add(1)
		rt.alerts.add(Alert{Kind: "transition", Transition: tr, At: tr.At})
	}
	replicas := make([]replicaView, len(sl.replicas))
	for i, s := range sl.replicas {
		replicas[i] = replicaView{url: s.url, healthy: s.Healthy(), quarantines: s.quarantines.Load()}
	}
	var slow []Action
	for _, act := range decide(tr, replicas, int(sl.preferred.Load()), rt.cfg.SyncOnQuarantine, rt.cfg.RestartCommand != "") {
		switch act.Kind {
		case ActionPromote:
			if sl.preferred.Swap(int32(act.Replica)) == int32(act.Replica) {
				continue // already preferred; nothing happened, nothing to alert
			}
		case ActionReprobe:
			rt.probe(sl.replicas[act.Replica], "reprobe")
		default:
			slow = append(slow, act)
			continue
		}
		rt.completed(tr, act, nil)
	}
	if len(slow) > 0 {
		rt.dispatch(tr, sl.replicas[tr.Replica], slow)
	}
}

// completed counts an applied action and alerts its outcome.
func (rt *Router) completed(tr Transition, act Action, err error) {
	rt.m.actions[slices.Index(actionKinds[:], act.Kind)].Add(1)
	al := Alert{Kind: "remediation", Transition: tr, Action: &act, At: tr.At}
	if err != nil {
		rt.m.remediationErrs.Add(1)
		al.Err = err.Error()
	}
	rt.alerts.add(al)
}

// replicaWork is one replica's restart and sync worker: at most one runs,
// and while it does, at most one action of each kind waits behind it -
// the newest, as the newest transition describes the replica best.
type replicaWork struct {
	mu      sync.Mutex
	running bool
	pending []pendingAction // arrival order, one per kind
}

// pendingAction is one action handed to a replica's worker, with the
// transition it answers.
type pendingAction struct {
	tr  Transition
	act Action
}

// dispatch hands a transition's restart and sync actions, in rule
// order, to the target replica's worker, starting it when it is idle.
// An action whose kind already waits replaces the waiting one (counted
// as coalesced), so a busy worker defers - never drops - a kind it has
// been asked for, and its queue stays bounded.
func (rt *Router) dispatch(tr Transition, s *shardState, acts []Action) {
	w := &s.work
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, act := range acts {
		p := pendingAction{tr: tr, act: act}
		if i := slices.IndexFunc(w.pending, func(q pendingAction) bool { return q.act.Kind == act.Kind }); i >= 0 {
			w.pending[i] = p
			rt.m.actionsCoalesced.Add(1)
			continue
		}
		w.pending = append(w.pending, p)
	}
	if w.running {
		return
	}
	w.running = true
	rt.workers.Add(1)
	go rt.work(rt.slices[tr.Slice], w)
}

// work is a replica's worker: it runs the waiting actions until none
// is left, alerting each outcome as it completes. After Close the
// actions still waiting run under the cancelled context, so each fails
// at once and is alerted with its error.
func (rt *Router) work(sl *sliceState, w *replicaWork) {
	defer rt.workers.Done()
	for {
		w.mu.Lock()
		batch := w.pending
		w.pending = nil
		if len(batch) == 0 {
			w.running = false
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		for _, p := range batch {
			var err error
			if p.act.Kind == ActionRestart {
				err = runRestartCommand(rt.life, rt.cfg.RestartCommand, p.act.Slice, p.act.Replica, p.act.URL)
			} else {
				err = rt.syncFromPeer(rt.life, sl, p.act.Replica)
			}
			rt.completed(p.tr, p.act, err)
		}
	}
}

// syncFromPeerTimeout bounds one remediation-driven anti-entropy pass.
// Digest exchange is cheap; the budget is for chunk transfer on a
// badly diverged column.
const syncFromPeerTimeout = 2 * time.Minute

// syncFromPeer tells a quarantined replica to pull its hardened columns
// level with a healthy peer in its slice. The target does the verifying
// (every fetched word must AN-check before it is written), so the
// router only picks the peer and relays the order.
func (rt *Router) syncFromPeer(ctx context.Context, sl *sliceState, replica int) error {
	target := sl.replicas[replica]
	var peer *shardState
	for _, s := range sl.replicas {
		if s != target && s.Healthy() {
			peer = s
			break
		}
	}
	if peer == nil {
		return fmt.Errorf("cluster: sync-from-peer: slice %d has no healthy peer for %s", sl.index, target.Name())
	}
	body, err := json.Marshal(SyncFromPeerRequest{Peer: peer.url})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, syncFromPeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target.url+"/sync/from-peer", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: sync-from-peer %s from %s: %w", target.Name(), peer.url, err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: sync-from-peer %s from %s: status %d: %.200s", target.Name(), peer.url, resp.StatusCode, msg)
	}
	return nil
}

// probeLoop watches every replica: /readyz decides health, and on
// success the replica's /metrics is scraped for its local detection
// counter so cluster-wide detections are visible on the router.
func (rt *Router) probeLoop() {
	defer rt.done.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.life.Done():
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, s := range rt.all {
			wg.Add(1)
			go func(s *shardState) {
				defer wg.Done()
				rt.probe(s, "probe-failures")
			}(s)
		}
		wg.Wait()
	}
}

func (rt *Router) probe(s *shardState, reason string) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	if rt.get(ctx, s.url+"/readyz") != nil {
		rt.noteFailure(s, reason)
		return
	}
	rt.noteSuccess(s, reason)
	if v, err := rt.scrapeDetected(ctx, s.url); err == nil {
		s.detected.Store(v)
	}
}

func (rt *Router) get(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxShardResponseBytes))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// scrapeDetected pulls ahead_detected_errors_total from a shard's
// Prometheus exposition.
func (rt *Router) scrapeDetected(ctx context.Context, base string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(io.LimitReader(resp.Body, maxShardResponseBytes))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "ahead_detected_errors_total "); ok {
			return strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("cluster: counter not found in %s/metrics", base)
}

// maxShardResponseBytes bounds a shard response body. Partial bodies
// scale with group count (at most a few thousand groups in SSB), so
// 32MB is generous even at large scale factors.
const maxShardResponseBytes = 32 << 20

// maxRequestBytes mirrors the serving layer's request cap.
const maxRequestBytes = 1 << 20

// RouterResponse is the body of a successful POST /query: the merged,
// verified relation plus coverage (shards_answered/shards_total) and
// the shard-attributed merged error log.
type RouterResponse struct {
	Query  string     `json:"query"`
	Mode   string     `json:"mode"`
	Flavor string     `json:"flavor"`
	Rows   int        `json:"rows"`
	Keys   [][]uint64 `json:"keys,omitempty"`
	Aggs   []uint64   `json:"aggs"`
	// Detected maps shard-attributed names ("shard1/lo_revenue" for an
	// in-shard detection, "shard1/wire:aggs" for a flip caught in the
	// response body at the merge point) to affected positions.
	Detected map[string][]uint64 `json:"detected,omitempty"`
	// ShardsAnswered/ShardsTotal count hash slices, not replicas: a
	// slice answers when any of its replicas does. A response with
	// ShardsAnswered < ShardsTotal is Degraded.
	ShardsAnswered int     `json:"shards_answered"`
	ShardsTotal    int     `json:"shards_total"`
	Degraded       bool    `json:"degraded,omitempty"`
	ElapsedMS      float64 `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// attempt is one replica request's classified outcome within a slice
// scatter.
type attempt struct {
	rep     *shardState
	partial *Partial
	// clientStatus/clientBody relay a shard-side 4xx (bad request) -
	// the request is at fault, not the replica.
	clientStatus int
	clientBody   []byte
	// shed marks 429/503 backpressure: the replica is alive but
	// declining work - no health penalty, but the slice retries a peer.
	shed bool
	err  error // network, 5xx, malformed body: the replica is at fault
}

// sliceReply is one slice's outcome: the winning partial (if any), or
// why there is none.
type sliceReply struct {
	slice     *sliceState
	partial   *Partial
	winner    *shardState
	hedgedWin bool // a non-preferred replica answered first
	// clientStatus/clientBody carry the slice's 4xx verdict, if that is
	// how it ended.
	clientStatus int
	clientBody   []byte
	contacted    bool // at least one replica was healthy enough to try
	sheds        int  // backpressure replies observed
	failures     int  // replica failures observed
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		rt.m.failed.Add(1)
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()

	start := time.Now()
	replies := make([]sliceReply, len(rt.slices))
	var wg sync.WaitGroup
	for i, sl := range rt.slices {
		wg.Add(1)
		go func(i int, sl *sliceState) {
			defer wg.Done()
			replies[i] = rt.scatterSlice(ctx, sl, body)
		}(i, sl)
	}
	wg.Wait()

	// Gather: decode and verify each winning partial at the merge
	// point. A partial that fails structural checks (Merger.Add) counts
	// as a replica failure, not a detection - the envelope itself is
	// broken.
	merger := NewMerger()
	contacted, client4xx := 0, 0
	var clientStatus int
	var clientBody []byte
	for i := range replies {
		rep := &replies[i]
		if !rep.contacted {
			continue
		}
		contacted++
		switch {
		case rep.partial != nil:
			if err := merger.Add(rep.partial); err != nil {
				rt.m.shardsFailed.Add(1)
				rep.winner.requestsFailed.Add(1)
				rt.noteFailure(rep.winner, "envelope-error")
				continue
			}
			if rep.hedgedWin {
				rt.m.hedgeWins.Add(1)
			}
		case rep.clientStatus != 0:
			client4xx++
			if clientStatus == 0 {
				clientStatus, clientBody = rep.clientStatus, rep.clientBody
			}
		}
	}
	rt.m.hedgeDups.Add(uint64(merger.Duplicates()))

	if merger.Answered() == 0 {
		rt.m.failed.Add(1)
		if contacted > 0 && client4xx == contacted {
			// Every contacted slice judged the request malformed - a
			// real consensus, safe to relay one shard's verdict. A mix
			// of 4xx with sheds, failures, or silence is not agreement:
			// the request may be fine and the cluster unwell, so answer
			// 503.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(clientStatus)
			_, _ = w.Write(clientBody)
			return
		}
		writeError(w, http.StatusServiceUnavailable, "no shards answered (%d slices configured)", len(rt.slices))
		return
	}

	res := merger.Result()
	resp := &RouterResponse{
		Query:          merger.Query(),
		Mode:           merger.Mode(),
		Flavor:         merger.Flavor(),
		Rows:           res.Rows(),
		Keys:           res.Keys,
		Aggs:           res.Aggs,
		Detected:       merger.Detected(),
		ShardsAnswered: merger.Answered(),
		ShardsTotal:    len(rt.slices),
		ElapsedMS:      float64(time.Since(start).Microseconds()) / 1e3,
	}
	resp.Degraded = resp.ShardsAnswered < resp.ShardsTotal
	if resp.Degraded {
		rt.m.degraded.Add(1)
	}
	if n := merger.Detections(); n > 0 {
		rt.m.detected.Add(uint64(n))
	}
	rt.m.served.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// scatterSlice serves one slice of the scatter from its replica set:
// the preferred replica is asked first; after HedgeDelay (or
// immediately on a shed or failure) the request is duplicated to the
// next healthy replica. The first valid partial wins and the losers
// are canceled. Failures penalize the failing replica's health; sheds
// do not.
func (rt *Router) scatterSlice(ctx context.Context, sl *sliceState, body []byte) sliceReply {
	out := sliceReply{slice: sl}
	order := sl.healthyOrder()
	if len(order) == 0 {
		return out
	}
	out.contacted = true
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the losing replica once a winner returns

	results := make(chan attempt, len(order))
	launched := 0
	launch := func() {
		s := order[launched]
		launched++
		go func() {
			results <- rt.request(cctx, s, body)
		}()
	}
	launch()
	var hedge <-chan time.Time
	if len(order) > 1 && rt.cfg.HedgeDelay > 0 {
		t := time.NewTimer(rt.cfg.HedgeDelay)
		defer t.Stop()
		hedge = t.C
	}
	for pending := 1; pending > 0; {
		select {
		case <-hedge:
			hedge = nil
			if launched < len(order) {
				rt.m.hedges.Add(1)
				launch()
				pending++
			}
		case a := <-results:
			pending--
			switch {
			case a.partial != nil:
				out.partial = a.partial
				out.winner = a.rep
				out.hedgedWin = a.rep != order[0]
				return out
			case a.clientStatus != 0:
				// A 4xx verdict is about the request, not the replica;
				// no peer would judge it differently.
				out.clientStatus, out.clientBody = a.clientStatus, a.clientBody
				return out
			case a.shed:
				out.sheds++
				a.rep.sheds.Add(1)
				rt.m.shardsShed.Add(1)
				// Backpressure sheds carry no health penalty, but the
				// slice still needs an answer: retry on the next
				// replica at once instead of dropping the rows.
				if launched < len(order) {
					launch()
					pending++
				}
			default:
				out.failures++
				a.rep.requestsFailed.Add(1)
				rt.m.shardsFailed.Add(1)
				rt.noteFailure(a.rep, "scatter-failure")
				if launched < len(order) {
					launch()
					pending++
				}
			}
		}
	}
	return out
}

// request sends one query to one replica's /partial and classifies the
// outcome.
func (rt *Router) request(ctx context.Context, s *shardState, body []byte) attempt {
	a := attempt{rep: s}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/partial", bytes.NewReader(body))
	if err != nil {
		a.err = err
		return a
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		a.err = err
		return a
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponseBytes))
	if err != nil {
		a.err = err
		return a
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		p := new(Partial)
		if err := json.Unmarshal(data, p); err != nil {
			a.err = fmt.Errorf("%s partial: %w", s.Name(), err)
			return a
		}
		a.partial = p
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// Shed or draining: the replica is alive but declining work.
		a.shed = true
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		a.clientStatus, a.clientBody = resp.StatusCode, data
	default:
		a.err = fmt.Errorf("%s status %d", s.Name(), resp.StatusCode)
	}
	return a
}

// handleInject forwards a fault-injection request to one healthy
// replica (round-robin over all of them), so soak and smoke harnesses
// can plant flips through the router without knowing the topology.
func (rt *Router) handleInject(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	n := len(rt.all)
	for off := 0; off < n; off++ {
		s := rt.all[(int(rt.rr.Add(1))+off)%n]
		if !s.Healthy() {
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/inject", bytes.NewReader(body))
		if rerr != nil {
			cancel()
			writeError(w, http.StatusInternalServerError, "%v", rerr)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, derr := rt.client.Do(req)
		if derr != nil {
			cancel()
			rt.noteFailure(s, "scatter-failure")
			continue
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxShardResponseBytes))
		resp.Body.Close()
		cancel()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(data)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "no healthy shards")
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is ready while at least one replica is; a fully dark
// cluster flips it to 503.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	for _, s := range rt.all {
		if s.Healthy() {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("ready\n"))
			return
		}
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = w.Write([]byte("no healthy shards\n"))
}

// handleAlerts serves the retained alert history, oldest first.
func (rt *Router) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Alerts []Alert `json:"alerts"`
	}{Alerts: rt.alerts.recent()})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("ahead_router_queries_total", "Merged queries answered 200.", rt.m.served.Load())
	counter("ahead_router_queries_failed_total", "Queries the router could not answer.", rt.m.failed.Load())
	counter("ahead_router_queries_degraded_total", "Queries answered from a subset of slices.", rt.m.degraded.Load())
	counter("ahead_router_detected_errors_total", "Corruptions observed at the merge point (wire and shard-local).", rt.m.detected.Load())
	counter("ahead_router_shard_requests_failed_total", "Scatter requests lost to replica failures.", rt.m.shardsFailed.Load())
	counter("ahead_router_shards_shed_total", "Scatter requests a replica shed with 429/503 backpressure.", rt.m.shardsShed.Load())
	counter("ahead_router_hedges_total", "Hedge requests launched after the hedge delay.", rt.m.hedges.Load())
	counter("ahead_router_hedge_wins_total", "Merged partials won by a non-preferred replica.", rt.m.hedgeWins.Load())
	counter("ahead_router_hedge_duplicates_total", "Duplicate partials for an already-merged slice, skipped.", rt.m.hedgeDups.Load())
	counter("ahead_router_alerts_total", "Structured alerts raised by remediation.", rt.alerts.count())
	counter("ahead_router_remediation_errors_total", "Remediation actions that failed.", rt.m.remediationErrs.Load())
	counter("ahead_router_events_dropped_total", "Health transitions dropped on remediation-queue overflow.", rt.m.eventsDropped.Load())
	counter("ahead_router_remediations_coalesced_total", "Restart and sync actions that replaced a waiting one of the same kind while the replica's worker was busy.", rt.m.actionsCoalesced.Load())

	labeled := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	labeled("ahead_router_health_transitions_total", "Replica health transitions remediated, by destination state.", "counter")
	for _, st := range []HealthState{StateHealthy, StateQuarantined} {
		fmt.Fprintf(w, "ahead_router_health_transitions_total{to=%q} %d\n", st.String(), rt.m.transitions[st].Load())
	}
	labeled("ahead_router_remediations_total", "Remediation actions executed, by kind.", "counter")
	for i, k := range actionKinds {
		fmt.Fprintf(w, "ahead_router_remediations_total{action=%q} %d\n", k, rt.m.actions[i].Load())
	}
	labeled("ahead_router_shard_up", "Whether the replica is healthy (1) or quarantined (0).", "gauge")
	for _, s := range rt.all {
		up := 0
		if s.Healthy() {
			up = 1
		}
		fmt.Fprintf(w, "ahead_router_shard_up{shard=\"%d\",replica=\"%d\"} %d\n", s.slice, s.replica, up)
	}
	labeled("ahead_router_shard_quarantines_total", "Quarantine windows entered or extended per replica.", "counter")
	for _, s := range rt.all {
		fmt.Fprintf(w, "ahead_router_shard_quarantines_total{shard=\"%d\",replica=\"%d\"} %d\n", s.slice, s.replica, s.quarantines.Load())
	}
	labeled("ahead_router_shard_detected_errors", "Shard-local detection counter at last scrape.", "gauge")
	for _, s := range rt.all {
		fmt.Fprintf(w, "ahead_router_shard_detected_errors{shard=\"%d\",replica=\"%d\"} %d\n", s.slice, s.replica, s.detected.Load())
	}
	labeled("ahead_router_slice_preferred_replica", "Replica index the slice's scatter currently prefers.", "gauge")
	for _, sl := range rt.slices {
		fmt.Fprintf(w, "ahead_router_slice_preferred_replica{shard=\"%d\"} %d\n", sl.index, sl.preferred.Load())
	}
}
