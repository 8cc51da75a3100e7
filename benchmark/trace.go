package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is the ID of the
// span that caused this one (0: none); spans of one request share Req.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Req    int64              `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attr   map[string]float64 `json:"attr,omitempty"`
}

// tracer keeps spans in memory until the run ends. All methods are
// no-ops on a nil tracer, so untraced runs pay one nil check per
// boundary and install no middleware at all (see traced).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span

	// The traced phases run one client, so at any instant at most one
	// request is in flight: the spans a router or shard handler opens
	// belong to the request the load generator (or router) opened last.
	// The router's scatter carries no header of ours to the shards, so
	// this is how shard spans find their parent.
	reqSpan    atomic.Int64
	routerSpan atomic.Int64
	reqID      atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int, attr map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Attr = attr
}

// mark returns the number of spans recorded so far; since(mark) returns
// the spans recorded after it - how a phase reads back its own spans.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

func (t *tracer) write(path string, env map[string]any) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Env   map[string]any `json:"env"`
		Spans []span         `json:"spans"`
	}{env, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval its direct children cover (overlapping children - the
// two shard requests of one scatter - are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// The layer a traced handler sits at decides whose child its span is.
const (
	layerServer = "server.handler"
	layerRouter = "router.handler"
	layerShard  = "shard.handler"
)

// traced wraps a handler with the benchmark's own span and byte count at
// its boundary. With a nil tracer it returns h itself: the end-to-end
// runs measure the product's handlers bare.
func traced(h http.Handler, t *tracer, layer string, shard int) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/query" && r.URL.Path != "/partial" {
			h.ServeHTTP(w, r)
			return
		}
		parent := int(t.reqSpan.Load())
		if layer == layerShard {
			parent = int(t.routerSpan.Load())
		}
		id := t.begin(layer, parent, t.reqID.Load())
		if layer == layerRouter {
			t.routerSpan.Store(int64(id))
		}
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		attr := map[string]float64{"bytes": float64(cw.n)}
		if layer == layerShard {
			attr["shard"] = float64(shard)
		}
		t.end(id, attr)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}
