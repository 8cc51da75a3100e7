package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ahead/internal/an"
	"ahead/internal/cluster"
	"ahead/internal/exec"
	"ahead/internal/faults"
	"ahead/internal/hashmap"
	"ahead/internal/ops"
	"ahead/internal/ssb"
	"ahead/internal/storage"
)

// Shares of the measured seconds a traced run gives each timed phase;
// the layer probes before them are bounded by repetitions, not time.
const (
	shareTracedSuite = 0.20
	shareTracedPass  = 0.08 // each of: three traced heights, one untraced
	shareRung        = 0.10 // each of r_low, r_ref, r_high
	shareTracedHeal  = 0.06
)

// latencyLimitMS is the p95 limit a rate has to meet to count towards
// max_rate_qps.
const latencyLimitMS = 50

// timeReps runs fn n times and returns the median duration in seconds.
func (r *runner) timeReps(n int, fn func() error) (float64, error) {
	n = r.unlessSmoke(n, 2)
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// measureLayers is the traced run: layer probes on the workload's own
// columns, one traced single-client pass per height, the three-rate
// ladder at the workload's own height, and the counters each layer
// keeps. It fills every per-layer metric.
func (r *runner) measureLayers() error {
	if r.cfg.outDir == "" {
		return fmt.Errorf("a traced run needs an -out directory")
	}
	before, err := r.scrape()
	if err != nil {
		return err
	}
	for _, probe := range []func() error{
		r.probeAN, r.probeBitpack, r.probeHashmap, r.probeStorage,
		r.probeOps, r.probeExec, r.probeServer, r.probeWire,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	if err := r.tracedPasses(); err != nil {
		return err
	}
	r.rateLadder()
	after, err := r.scrape()
	if err != nil {
		return err
	}
	for name, v := range after {
		r.metrics[name] = v - before[name]
	}
	r.metrics["faults.injected"] = float64(r.injected.Load())
	r.metrics["faults.detected"] = float64(r.detected.Load())
	r.metrics["faults.repaired"] = float64(r.repaired.Load())
	r.settleFaults()
	r.metrics["failed_share"] = float64(r.failed.Load()) / float64(max(r.attempted.Load(), 1))
	return nil
}

// mbPerS is user-data megabytes per second: the column's plain bytes
// over the time, whatever the physical representation scanned.
func mbPerS(bytes int, seconds float64) float64 { return float64(bytes) / 1e6 / seconds }

func mPerS(n int, seconds float64) float64 { return float64(n) / 1e6 / seconds }

func (r *runner) fact(hardened bool, col string) *storage.Column {
	if hardened {
		return r.st.db.Hardened("lineorder").MustColumn(col)
	}
	return r.st.db.Plain("lineorder").MustColumn(col)
}

// probeAN times the an kernels over lo_quantity: one byte per value
// plain, a 16-bit code word hardened.
func (r *runner) probeAN() error {
	plain, hard := r.fact(false, "lo_quantity"), r.fact(true, "lo_quantity")
	src, cw, code := plain.U8(), hard.U16(), hard.Code()
	if src == nil || cw == nil || code == nil {
		return fmt.Errorf("lo_quantity is not tinyint hardened to 16 bits; the an probes assume it")
	}
	smaller, ok := an.NextSmaller(code)
	if !ok {
		return fmt.Errorf("no smaller code than %v to re-encode to", code)
	}
	n := len(src)
	dst16, dst8, scratch := make([]uint16, n), make([]uint8, n), append([]uint16(nil), cw...)
	errs := make([]uint64, 0, 16)
	from, to := code, smaller
	probes := []struct {
		name string
		fn   func() error
	}{
		{"an.encode_mb_s", func() error { an.EncodeSlice(code, src, dst16); return nil }},
		{"an.check_mb_s", func() error { errs = an.CheckSlice(code, cw, errs[:0]); return nil }},
		{"an.check_blocked_mb_s", func() error { errs = an.CheckSliceBlocked(code, cw, errs[:0]); return nil }},
		{"an.checkdecode_mb_s", func() error { errs = an.CheckDecodeSlice(code, cw, dst8, errs[:0]); return nil }},
		// Re-encode in place, there and back, so every repetition
		// starts from valid code words.
		{"an.reencode_mb_s", func() error {
			err := an.ReencodeSlice(from, to, scratch)
			from, to = to, from
			return err
		}},
	}
	for _, p := range probes {
		s, err := r.timeReps(reps, p.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if len(errs) != 0 {
			return fmt.Errorf("%s: %d corrupt code words in a clean column", p.name, len(errs))
		}
		r.metrics[p.name] = mbPerS(plain.Bytes(), s)
	}
	return nil
}

// probeBitpack times the packed-lane range scans over lo_discount's
// mirror: raw (Late: encoded bounds, no checks) and checked (Continuous).
func (r *runner) probeBitpack() error {
	plain, hard := r.fact(false, "lo_discount"), r.fact(true, "lo_discount")
	lanes := hard.Packed()
	if lanes == nil || lanes.Code() == nil {
		return fmt.Errorf("lo_discount carries no hardened packed mirror")
	}
	n, code := lanes.Len(), lanes.Code()
	out, errs := make([]uint64, 0, n), make([]uint64, 0, 16)
	s, _ := r.timeReps(reps, func() error {
		out = lanes.ScanRangeRawInto(code.Encode(1), code.Encode(3), 0, n, 1, out[:0])
		return nil
	})
	r.metrics["bitpack.scan_raw_mb_s"] = mbPerS(plain.Bytes(), s)
	matches := len(out)
	s, _ = r.timeReps(reps, func() error {
		out, errs = lanes.ScanRangeCheckedInto(1, 3, 0, n, 1, out[:0], errs[:0])
		return nil
	})
	r.metrics["bitpack.scan_checked_mb_s"] = mbPerS(plain.Bytes(), s)
	if len(out) != matches || len(errs) != 0 {
		return fmt.Errorf("packed scans disagree: raw %d matches, checked %d matches and %d errors", matches, len(out), len(errs))
	}
	return nil
}

// probeHashmap times U64 at the size of the largest dimension the joins
// build over (part).
func (r *runner) probeHashmap() error {
	n := r.st.data.Part.Rows()
	var m *hashmap.U64
	s, _ := r.timeReps(reps, func() error {
		m = hashmap.New(n)
		for k := 1; k <= n; k++ {
			m.Put(uint64(k), uint32(k))
		}
		return nil
	})
	r.metrics["hashmap.put_mops"] = mPerS(n, s)
	for _, p := range []struct {
		name string
		base int
		hit  bool
	}{{"hashmap.get_hit_mops", 0, true}, {"hashmap.get_miss_mops", n, false}} {
		found := 0
		s, _ = r.timeReps(reps, func() error {
			found = 0
			for k := 1; k <= n; k++ {
				if _, ok := m.Get(uint64(p.base + k)); ok {
					found++
				}
			}
			return nil
		})
		if p.hit != (found == n) || !p.hit && found != 0 {
			return fmt.Errorf("%s: found %d of %d keys", p.name, found, n)
		}
		r.metrics[p.name] = mPerS(n, s)
	}
	return nil
}

// probeStorage times hardening the fact table and writing and reading a
// chunked column snapshot, and records the footprint of each physical
// representation.
func (r *runner) probeStorage() error {
	db, lo := r.st.db, r.st.data.Lineorder
	s, err := r.timeReps(3, func() error {
		_, err := lo.Harden(storage.LargestCodeChooser)
		return err
	})
	if err != nil {
		return err
	}
	r.metrics["storage.harden_mb_s"] = mbPerS(lo.Bytes(), s)
	r.metrics["storage.bytes.plain"] = float64(db.StorageBytes(exec.Unprotected))
	r.metrics["storage.bytes.dmr"] = float64(db.StorageBytes(exec.DMR))
	r.metrics["storage.bytes.hardened"] = float64(db.StorageBytes(exec.Continuous))
	r.metrics["storage.bytes.packed"] = float64(db.BitPackedBytes())

	col := r.fact(true, "lo_revenue")
	var buf bytes.Buffer
	s, err = r.timeReps(5, func() error {
		buf.Reset()
		return storage.WriteColumnChunked(&buf, col, storage.DefaultChunkRows)
	})
	if err != nil {
		return err
	}
	r.metrics["storage.snapshot_write_mb_s"] = mbPerS(col.Bytes(), s)

	path := filepath.Join(r.cfg.outDir, "snapshot-"+r.w.name+".tmp")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	defer os.Remove(path)
	snap, err := storage.OpenColumnSnapshot(path, col.Name())
	if err != nil {
		return err
	}
	defer snap.Close()
	s, err = r.timeReps(5, func() error {
		for i := 0; i < snap.Chunks(); i++ {
			if _, err := snap.ReadChunk(i); err != nil {
				return err
			}
		}
		return nil
	})
	r.metrics["storage.snapshot_read_mb_s"] = mbPerS(col.Bytes(), s)
	return err
}

// opProbe runs body as a plan inside exec.Run, so columns and operator
// options resolve exactly as a query's would under the mode.
func (r *runner) opProbe(mode exec.Mode, packed bool, body func(q *exec.Query, o *ops.Opts) error) error {
	_, _, err := exec.Run(r.st.db, mode, ops.Blocked, func(q *exec.Query) (*ops.Result, error) {
		if err := body(q, q.Opts()); err != nil {
			return nil, err
		}
		return q.FinishScalar(&ops.Vec{Vals: []uint64{0}})
	}, exec.WithPacked(packed))
	return err
}

// probeOps times the physical operators on the fact columns the flights
// use, plain (as Unprotected runs them) and hardened (as Continuous
// does), then whole flights fused and unfused, the scalar flavor the
// servers default to, and allocations per run.
func (r *runner) probeOps() error {
	m := r.metrics
	for _, v := range []struct {
		suffix string
		mode   exec.Mode
	}{{"plain", exec.Unprotected}, {"hardened", exec.Continuous}} {
		err := r.opProbe(v.mode, true, func(q *exec.Query, o *ops.Opts) error {
			col := func(table, name string) *storage.Column { return q.MustCol(table, name) }
			disc, qty := col("lineorder", "lo_discount"), col("lineorder", "lo_quantity")
			rev, od, pk := col("lineorder", "lo_revenue"), col("lineorder", "lo_orderdate"), col("lineorder", "lo_partkey")
			price := col("lineorder", "lo_extendedprice")
			n := disc.Len()
			var sel, all *ops.Sel
			var err error
			filterName := "ops.filter_mb_s.plain"
			if v.mode == exec.Continuous {
				filterName = "ops.filter_mb_s.packed"
			}
			s, err := r.timeReps(reps, func() error { sel, err = ops.Filter(disc, 1, 3, o); return err })
			if err != nil {
				return err
			}
			m[filterName] = mbPerS(n, s) // lo_discount: one user byte per row
			if all, err = ops.Filter(disc, 0, ^uint64(0), o); err != nil {
				return err
			}

			var revVec *ops.Vec
			if s, err = r.timeReps(reps, func() error { revVec, err = ops.Gather(rev, sel, o); return err }); err != nil {
				return err
			}
			m["ops.gather_mb_s."+v.suffix] = mbPerS(4*sel.Len(), s) // lo_revenue: four user bytes per row

			partKey, dateKey := col("part", "p_partkey"), col("date", "d_datekey")
			partAll, err := ops.Filter(partKey, 0, ^uint64(0), o)
			if err != nil {
				return err
			}
			var partHT *hashmap.U64
			if s, err = r.timeReps(reps, func() error { partHT, err = ops.HashBuild(partKey, partAll, o); return err }); err != nil {
				return err
			}
			if v.mode == exec.Continuous {
				m["ops.hashbuild_ms"] = 1e3 * s
			}
			year, err := ops.Filter(col("date", "d_year"), 1993, 1993, o)
			if err != nil {
				return err
			}
			dateHT, err := ops.HashBuild(dateKey, year, o)
			if err != nil {
				return err
			}
			if s, err = r.timeReps(reps, func() error { _, err = ops.SemiJoin(od, dateHT, nil, o); return err }); err != nil {
				return err
			}
			m["ops.semijoin_mrows_s."+v.suffix] = mPerS(n, s)
			if s, err = r.timeReps(reps, func() error { _, _, err = ops.HashProbe(pk, partHT, nil, o); return err }); err != nil {
				return err
			}
			m["ops.hashprobe_mrows_s."+v.suffix] = mPerS(n, s)

			keyA, err := ops.Gather(disc, all, o)
			if err != nil {
				return err
			}
			keyB, err := ops.Gather(qty, all, o)
			if err != nil {
				return err
			}
			var gids []uint32
			var groups [][]uint64
			if s, err = r.timeReps(reps, func() error {
				gids, groups, err = ops.GroupBy([]*ops.Vec{keyA, keyB}, o)
				return err
			}); err != nil {
				return err
			}
			if v.mode == exec.Continuous {
				m["ops.groupby_mrows_s"] = mPerS(n, s)
			}
			if revVec, err = ops.Gather(rev, all, o); err != nil {
				return err
			}
			if s, err = r.timeReps(reps, func() error { _, err = ops.SumGrouped(revVec, gids, len(groups), o); return err }); err != nil {
				return err
			}
			m["ops.sumgrouped_mrows_s."+v.suffix] = mPerS(n, s)

			// The Q1.1 tail as the fused kernel runs it.
			if s, err = r.timeReps(reps, func() error {
				_, err = ops.FusedFilterSemiSumProduct([]ops.RangePred{
					{Col: disc, Lo: 1, Hi: 3}, {Col: qty, Lo: 0, Hi: 24},
				}, od, dateHT, price, disc, o)
				return err
			}); err != nil {
				return err
			}
			m["ops.fused_q11_ms."+v.suffix] = 1e3 * s
			return o.Log.Err()
		})
		if err != nil {
			return fmt.Errorf("ops probes (%s): %w", v.suffix, err)
		}
		// Q4.1 whole, fused cascade against the materializing pipeline:
		// the dimension builds are common to both and small beside the
		// fact pass.
		for _, f := range []struct {
			name  string
			fused bool
		}{{"ops.fused_q41_ms.", true}, {"ops.unfused_q41_ms.", false}} {
			s, err := r.timeReps(reps, func() error {
				_, _, err := exec.Run(r.st.db, v.mode, ops.Blocked, ssb.Queries["Q4.1"], exec.WithFusion(f.fused))
				return err
			})
			if err != nil {
				return err
			}
			m[f.name+v.suffix] = 1e3 * s
		}
	}
	// The same range filter with the packed mirror switched off.
	err := r.opProbe(exec.Continuous, false, func(q *exec.Query, o *ops.Opts) error {
		disc := q.MustCol("lineorder", "lo_discount")
		s, err := r.timeReps(reps, func() error { _, err := ops.Filter(disc, 1, 3, o); return err })
		m["ops.filter_mb_s.wide"] = mbPerS(disc.Len(), s)
		return err
	})
	if err != nil {
		return err
	}

	scalar := r.directSuite(ops.Scalar, exec.Modes, nil)
	for _, mode := range exec.Modes {
		m["ops.scalar_suite_ms."+modeKey(mode)] = scalar.suiteMS(mode, "Q")
	}
	for name, flight := range map[string]string{"q11": "Q1.1", "q41": "Q4.1"} {
		var runErr error
		m["ops.allocs_per_run."+name] = testing.AllocsPerRun(5, func() {
			if _, _, err := exec.Run(r.st.db, exec.Continuous, ops.Blocked, ssb.Queries[flight]); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return runErr
		}
	}
	return nil
}

// directSuite answers the suite with direct exec.Run calls in
// probeSweeps interleaved sweeps - the probe form of suitePhase, bounded
// by repetitions rather than time.
func (r *runner) directSuite(flavor ops.Flavor, modes []exec.Mode, pool *exec.Pool) suiteTimes {
	var opts []exec.RunOption
	if pool != nil {
		opts = append(opts, exec.WithPool(pool))
	}
	out := suiteTimes{}
	r.suitePhase(out, 0, r.unlessSmoke(probeSweeps, 1), modes, func(f string, mode exec.Mode) (answer, error) {
		res, log, err := exec.Run(r.st.db, mode, flavor, ssb.Queries[f], opts...)
		if err != nil {
			return answer{}, err
		}
		return answer{res: res, attempts: 1, detections: log.Count()}, nil
	}, false, "exec.Run")
	return out
}

// probeExec times what exec adds around the operators: the fixed cost of
// a run, the pool's dispatch, the suite on a pool of one and of every
// core, and the three repair paths.
func (r *runner) probeExec() error {
	db, m := r.st.db, r.metrics
	s, err := r.timeReps(10*reps, func() error {
		_, _, err := exec.Run(db, exec.Continuous, ops.Blocked, func(q *exec.Query) (*ops.Result, error) {
			return q.FinishScalar(&ops.Vec{Vals: []uint64{0}})
		})
		return err
	})
	if err != nil {
		return err
	}
	m["exec.run_fixed_us"] = 1e6 * s

	m["exec.pool_workers"] = float64(r.procs)
	for _, p := range []struct {
		name    string
		workers int
	}{{"exec.pool_suite_ms.w1", 1}, {"exec.pool_suite_ms.wmax", r.procs}} {
		pool, err := newPool(p.workers)
		if err != nil {
			return err
		}
		if p.workers == r.procs {
			rows := r.st.data.Lineorder.Rows()
			s, _ := r.timeReps(10*reps, func() error {
				pool.ForEach(rows, func(int, int, int) {})
				return nil
			})
			m["exec.pool_foreach_us"] = 1e6 * s
		}
		m[p.name] = r.directSuite(ops.Blocked, []exec.Mode{exec.Continuous}, pool).suiteMS(exec.Continuous, "Q")
		pool.Close()
	}
	m["suite_pool_ms.continuous"] = m["exec.pool_suite_ms.wmax"]

	inj := faults.NewInjector(r.cfg.seed)
	disc := r.fact(true, "lo_discount")
	if s, err = r.timeReps(reps, func() error {
		if _, err := inj.FlipRandom(disc, 1, flipWeight(disc)); err != nil {
			return err
		}
		_, rep, err := exec.RunWithRecovery(db, exec.Continuous, ops.Blocked, ssb.Queries["Q1.1"])
		if err == nil && (rep.Attempts != 2 || rep.RepairedCount() != 1) {
			err = fmt.Errorf("recovery probe: %d attempts, %d repaired, want 2 and 1", rep.Attempts, rep.RepairedCount())
		}
		return err
	}); err != nil {
		return err
	}
	m["exec.recovery_ms"] = 1e3 * s

	orig := r.fact(true, "lo_quantity").Code()
	smaller, ok := an.NextSmaller(orig)
	if !ok {
		return fmt.Errorf("lo_quantity has no smaller code to re-harden to")
	}
	next := []*an.Code{smaller, orig}
	i := 0
	if s, err = r.timeReps(6, func() error {
		_, err := db.RehardenColumn("lineorder", "lo_quantity", next[i%2])
		i++
		return err
	}); err != nil {
		return err
	}
	m["exec.reharden_ms"] = 1e3 * s

	if s, err = r.timeReps(3, func() error {
		fixed, err := db.Scrub()
		if err == nil && len(fixed) != 0 {
			err = fmt.Errorf("scrub repaired %v in a clean database", fixed)
		}
		return err
	}); err != nil {
		return err
	}
	m["exec.scrub_ms"] = 1e3 * s
	return nil
}

// widestFlight is the flight with the most result rows: the largest
// response body the servers encode.
func (r *runner) widestFlight() string {
	widest := ssb.QueryNames[0]
	for _, f := range ssb.QueryNames {
		if r.ref[f].Rows() > r.ref[widest].Rows() {
			widest = f
		}
	}
	return widest
}

// probeServer calls the server's handler with a recorder, no socket, and
// the same flight directly, in alternation: what decode, admission and
// encode add to the engine's own time is the median of the pairwise
// differences, so a slow stretch of the host hits both sides of a pair.
func (r *runner) probeServer() error {
	for name, flight := range map[string]string{"small": "Q1.1", "large": r.widestFlight()} {
		body := []byte(`{"query":"` + flight + `"}`)
		var handler, overhead []float64
		for i := 0; i < r.unlessSmoke(reps, 2); i++ {
			t0 := time.Now()
			rec := httptest.NewRecorder()
			r.st.node.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			h := time.Since(t0)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler %s: status %d: %s", flight, rec.Code, rec.Body)
			}
			t0 = time.Now()
			if _, _, err := exec.Run(r.st.db, exec.Continuous, ops.Scalar, ssb.Queries[flight]); err != nil {
				return err
			}
			d := time.Since(t0)
			handler = append(handler, 1e3*ms(h))
			overhead = append(overhead, 1e3*ms(h-d))
		}
		r.metrics["server.handler_us."+name] = median(handler)
		r.metrics["server.overhead_us."+name] = median(overhead)
	}
	return nil
}

// probeWire times the two ends of the shard-to-router wire on the widest
// flight's partial: hardening it for the wire, and the AN-checked merge.
func (r *runner) probeWire() error {
	flight := r.widestFlight()
	var capt exec.Capture
	if _, _, err := exec.Run(r.st.db, exec.Continuous, ops.Scalar, ssb.Queries[flight], exec.WithCapture(&capt)); err != nil {
		return err
	}
	var part *cluster.Partial
	s, err := r.timeReps(5*reps, func() (err error) {
		part, err = cluster.EncodePartial(flight, exec.Continuous.String(), ops.Scalar.String(), cluster.ShardSpec{}, capt.Groups, capt.Aggs)
		return err
	})
	if err != nil {
		return err
	}
	r.metrics["cluster.encode_partial_us"] = 1e6 * s
	var merger *cluster.Merger
	if s, err = r.timeReps(5*reps, func() error {
		merger = cluster.NewMerger()
		return merger.Add(part)
	}); err != nil {
		return err
	}
	r.metrics["cluster.merge_add_us"] = 1e6 * s
	if merger.Detections() != 0 || !r.ref[flight].Equal(merger.Result()) {
		return fmt.Errorf("wire probe: merged %s differs from the reference", flight)
	}
	return nil
}

// tracedPasses runs the traced suite at engine height, then one traced
// single-client closed-loop pass per height, then the same pass
// untraced at the workload's own height; the difference between the
// last two is what tracing costs.
func (r *runner) tracedPasses() error {
	m := r.metrics
	seq := requestSequence(r.cfg.seed, 13*injectEvery, false)

	engine := r.targetAt(heightEngine)
	suite := suiteTimes{}
	r.suitePhase(suite, r.phase(shareTracedSuite), r.unlessSmoke(probeSweeps, 1), exec.Modes, func(f string, mode exec.Mode) (answer, error) {
		return engine.ask(f, mode, false)
	}, false, "exec.Run")
	for _, mode := range exec.Modes {
		for _, g := range []string{"Q1", "Q2", "Q3", "Q4"} {
			m["ssb.flight_ms."+g+"."+modeKey(mode)] = suite.suiteMS(mode, g)
		}
		if mode != exec.Unprotected {
			m["ssb.overhead."+modeKey(mode)] = suite.suiteMS(mode, "Q") / suite.suiteMS(exec.Unprotected, "Q")
		}
	}

	tracedP50 := map[string]float64{}
	for _, height := range []string{heightEngine, heightNode, heightCluster} {
		mark := r.tracer.mark()
		do, nonExec := r.tracedDo(r.targetAt(height), seq)
		st := summarize(closedLoop(wallClock{}, r.phase(shareTracedPass), 1, do))
		tracedP50[height] = st.latency(50)
		switch height {
		case heightNode:
			m["server.nonexec_ms_p50"] = median(*nonExec)
		case heightCluster:
			if err := r.routerSpans(r.tracer.since(mark)); err != nil {
				return err
			}
		}
	}
	// Untraced twin: no span around the request. The handler middleware
	// stays installed - it cannot be removed from a running server - but
	// with no request span published it only adds its own two clock
	// reads, which is part of what is being priced.
	r.tracer.reqSpan.Store(0)
	bare := summarize(closedLoop(wallClock{}, r.phase(shareTracedPass), 1, r.do(r.tgt, seq, 0, false)))
	untraced := bare.latency(50)
	m["trace_overhead_share"] = (tracedP50[r.w.height] - untraced) / untraced
	return nil
}

// routerSpans derives the cluster layer's times from one pass's spans:
// per router span, its self time (scatter, decode, merge, encode) and
// its shard children's slowest time and skew.
func (r *runner) routerSpans(spans []span) error {
	self := selfTimes(spans)
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Name == layerShard {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var selfMS, slowest, skew, wire []float64
	for _, s := range spans {
		if s.Name != layerRouter {
			continue
		}
		if len(kids[s.ID]) != shardCount {
			return fmt.Errorf("router span %d has %d shard spans, want %d", s.ID, len(kids[s.ID]), shardCount)
		}
		lo, hi, bytes := int64(1<<62), int64(0), 0.0
		for _, k := range kids[s.ID] {
			lo, hi = min(lo, k.End-k.Start), max(hi, k.End-k.Start)
			bytes += k.Attr["bytes"]
		}
		selfMS = append(selfMS, float64(self[s.ID])/1e6)
		slowest = append(slowest, float64(hi)/1e6)
		skew = append(skew, float64(hi-lo)/1e6)
		wire = append(wire, bytes)
	}
	if len(selfMS) == 0 {
		return fmt.Errorf("the traced router pass recorded no router span")
	}
	r.metrics["cluster.router_self_ms_p50"] = median(selfMS)
	r.metrics["cluster.slowest_shard_ms_p50"] = median(slowest)
	r.metrics["cluster.shard_skew_ms_p50"] = median(skew)
	r.metrics["cluster.wire_bytes_per_query"] = median(wire)
	return nil
}

// rateLadder drives the three frozen rates, open loop, untraced, at the
// workload's own height, then (on workloads without a fault schedule)
// a heal phase so the fault ledger has entries everywhere.
func (r *runner) rateLadder() {
	m, w := r.metrics, r.w
	seq := requestSequence(r.cfg.seed, 13*injectEvery*8, w.faults)
	sent, maxRate := 0, 0.0
	for i, name := range []string{"r_low", "r_ref", "r_high"} {
		failedBefore := r.failed.Load()
		st := r.openPhase(r.tgt, w.rates[i], r.phase(shareRung), seq, sent, w.faults)
		sent += st.sent
		p50, p95 := st.latency(50), st.latency(95)
		if name == "r_ref" {
			m["latency_p99_ms.r_ref"] = st.latency(99)
			m["loadgen.late_p95_ms"] = st.lateP95
		} else {
			m["latency_p50_ms."+name], m["latency_p95_ms."+name] = p50, p95
		}
		if p95 <= latencyLimitMS && r.failed.Load() == failedBefore && !st.backlogGrowing {
			maxRate = w.rates[i]
		}
	}
	m["loadgen.sent"] = float64(sent)
	m["max_rate_qps"] = maxRate
	if !w.faults {
		r.healPhase(healTimes{}, r.tgt, r.phase(shareTracedHeal), seq, 0)
	}
}

// scrape reads the counters the serving layers keep: the node's and the
// router's /metrics, as the per-layer metric names they feed.
func (r *runner) scrape() (map[string]float64, error) {
	out := map[string]float64{}
	for url, names := range map[string]map[string]string{
		r.st.nodeURL: {
			"ahead_queries_served_total":   "server.served",
			"ahead_queries_shed_total":     "server.shed",
			"ahead_queries_failed_total":   "server.failed",
			"ahead_queries_canceled_total": "server.canceled",
			"ahead_detected_errors_total":  "server.detected",
			"ahead_repair_retries_total":   "server.repair_retries",
		},
		r.st.routerURL: {
			"ahead_router_hedges_total":           "cluster.hedges",
			"ahead_router_hedge_wins_total":       "cluster.hedge_wins",
			"ahead_router_hedge_duplicates_total": "cluster.hedge_duplicates",
			"ahead_router_shards_shed_total":      "cluster.shards_shed",
		},
	} {
		resp, err := r.st.client.Get(url + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			series, value, _ := strings.Cut(sc.Text(), " ")
			if name, wanted := names[series]; wanted {
				v, err := strconv.ParseFloat(value, 64)
				if err != nil {
					resp.Body.Close()
					return nil, fmt.Errorf("%s/metrics: %s: %w", url, series, err)
				}
				out[name] = v
			}
		}
		resp.Body.Close()
		for _, name := range names {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("%s/metrics lacks the series behind %s", url, name)
			}
		}
	}
	return out, nil
}
