package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"ahead/internal/ops"
)

// metrics is the serving layer's counter set, exposed in Prometheus
// text exposition format. Hand-rolled: the repo takes no dependencies,
// and the format is a few lines of fmt.Fprintf.
type metrics struct {
	served        atomic.Uint64 // 2xx query responses
	shed          atomic.Uint64 // 429 admission rejections
	failed        atomic.Uint64 // 4xx validation + 5xx execution errors
	canceled      atomic.Uint64 // deadline / client-disconnect aborts
	detected      atomic.Uint64 // detected corrupt positions (all queries)
	repairRetries atomic.Uint64 // extra attempts spent by healing runs
	injected      atomic.Uint64 // bit flips planted via /inject

	syncRuns          atomic.Uint64 // completed /sync/from-peer passes
	syncFailed        atomic.Uint64 // failed /sync/from-peer passes
	syncHealedChunks  atomic.Uint64 // chunks healed from peers
	syncChunksFetched atomic.Uint64 // chunks pulled from peers (rate -> chunks/sec)
	syncBytes         atomic.Uint64 // payload bytes pulled from peers

	latency latencyHist
}

func newMetrics() *metrics { return &metrics{} }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// latencyBounds are the histogram bucket upper bounds in seconds,
// log-spaced from 1ms to ~16s to cover SF 0.01 point lookups through
// saturated SF 1 group-bys.
var latencyBounds = [numLatencyBuckets]float64{
	0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 16,
}

const numLatencyBuckets = 14

type latencyHist struct {
	buckets [numLatencyBuckets]atomic.Uint64 // cumulative at expose time
	count   atomic.Uint64
	sumUS   atomic.Uint64
}

func (h *latencyHist) observe(d time.Duration) {
	s := d.Seconds()
	for i, b := range latencyBounds {
		if s <= b {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sumUS.Add(uint64(d.Microseconds()))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m := s.metrics
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("ahead_queries_served_total", "Queries answered 200.", m.served.Load())
	counter("ahead_queries_shed_total", "Queries shed 429 by admission control.", m.shed.Load())
	counter("ahead_queries_failed_total", "Queries rejected or failed (4xx/5xx).", m.failed.Load())
	counter("ahead_queries_canceled_total", "Queries stopped by deadline or disconnect.", m.canceled.Load())
	counter("ahead_detected_errors_total", "Corrupt positions detected during query execution.", m.detected.Load())
	counter("ahead_repair_retries_total", "Full re-executions spent by healing runs (attempts after the first, which may have stopped at its first detecting stride).", m.repairRetries.Load())
	counter("ahead_injected_faults_total", "Bit flips planted via /inject.", m.injected.Load())
	counter("ahead_sync_runs_total", "Completed anti-entropy passes (POST /sync/from-peer).", m.syncRuns.Load())
	counter("ahead_sync_failed_total", "Failed anti-entropy passes.", m.syncFailed.Load())
	counter("ahead_sync_healed_chunks_total", "Column chunks healed from peer replicas.", m.syncHealedChunks.Load())
	counter("ahead_sync_chunks_fetched_total", "Column chunks fetched from peers during anti-entropy (rate() gives chunks/sec).", m.syncChunksFetched.Load())
	counter("ahead_sync_bytes_total", "Payload bytes fetched from peers during anti-entropy.", m.syncBytes.Load())

	if a := s.cfg.Adapt; a != nil {
		st := a.Status()
		counter("ahead_adapt_ticks_total", "Adaptive-hardening controller ticks.", st.Ticks)
		counter("ahead_adapt_decisions_total", "Re-hardening decisions taken by the controller.", st.Decisions)
		counter("ahead_adapt_rehardens_total", "Columns re-hardened in the background.", st.Rehardens)
		counter("ahead_adapt_failed_rehardens_total", "Re-hardening attempts that failed.", st.FailedRehardens)
		counter("ahead_adapt_reencoded_bytes_total", "Bytes re-encoded by background re-hardening.", st.BytesReencoded)
		gauge("ahead_adapt_bound_held", "1 when every adaptable column's hazard is within the target bound.", b2i(st.BoundHeld))
		const strength = "ahead_adapt_column_strength_bits"
		fmt.Fprintf(w, "# HELP %s Redundancy bits of each column's current coding (|A| for AN, check width for residue).\n# TYPE %s gauge\n", strength, strength)
		for _, c := range st.Columns {
			bits := uint(0)
			switch c.Scheme {
			case "an":
				bits = c.CodeBits - c.DataBits
			case "residue":
				bits = c.ResidueBits
			}
			fmt.Fprintf(w, "%s{table=%q,column=%q,scheme=%q} %d\n", strength, c.Table, c.Column, c.Scheme, bits)
		}
	}

	const stored = "ahead_storage_bytes"
	fmt.Fprintf(w, "# HELP %s Bytes held by each resident copy of the base data (tmr is 0 until the first TMR query builds it).\n# TYPE %s gauge\n", stored, stored)
	res := s.cfg.DB.ResidentBytes()
	for _, c := range []struct {
		copy  string
		bytes int
	}{{"plain", res.Plain}, {"dmr", res.DMR}, {"tmr", res.TMR}, {"hardened", res.Hardened}} {
		fmt.Fprintf(w, "%s{copy=%q} %d\n", stored, c.copy, c.bytes)
	}

	gauge("ahead_inflight_queries", "Queries currently executing.", int64(len(s.sem)))
	gauge("ahead_queued_queries", "Queries waiting for an execution slot.", s.queued.Load())
	depth := 0
	if s.cfg.Pool != nil {
		depth = s.cfg.Pool.QueueDepth()
	}
	gauge("ahead_pool_queue_depth", "Morsels submitted to the pool but not yet claimed.", int64(depth))
	gauge("ahead_scratch_live_buffers", "Scratch-arena buffers currently borrowed.", ops.LiveScratch())
	gauge("ahead_goroutines", "Goroutines in the serving process.", int64(runtime.NumGoroutine()))

	const hist = "ahead_query_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Query execution latency.\n# TYPE %s histogram\n", hist, hist)
	var cum uint64
	for i, b := range latencyBounds {
		cum += m.latency.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", hist, fmt.Sprintf("%g", b), cum)
	}
	count := m.latency.count.Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", hist, count)
	fmt.Fprintf(w, "%s_sum %g\n", hist, float64(m.latency.sumUS.Load())/1e6)
	fmt.Fprintf(w, "%s_count %d\n", hist, count)
}
