package exec

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ahead/internal/an"
	"ahead/internal/cluster"
	"ahead/internal/faults"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

// corruptW plants the same transient flips the plain-mirror recovery
// tests use, so source-backed healing can be compared one-to-one.
func corruptW(t *testing.T, db *DB) {
	t.Helper()
	w := db.Hardened("t").MustColumn("w")
	inj := faults.NewInjector(21)
	for _, pos := range []int{15, 16} { // inside the sumPlan filter range
		if _, err := inj.FlipAt(w, pos, 2); err != nil {
			t.Fatal(err)
		}
	}
}

// peerHandler serves GET /sync/chunk from a healthy twin DB - the
// minimal peer surface PeerRepairSource needs, without pulling the
// server package into exec's tests.
func peerHandler(t *testing.T, db *DB) http.Handler {
	t.Helper()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/sync/chunk" {
			http.NotFound(w, r)
			return
		}
		q := r.URL.Query()
		chunk, _ := strconv.Atoi(q.Get("chunk"))
		words, err := db.ChunkWords(q.Get("table"), q.Get("column"), chunk)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(&cluster.ChunkPayload{
			Version: cluster.SyncVersion, Table: q.Get("table"), Column: q.Get("column"),
			Chunk: chunk, Words: words, CRC: cluster.WordsCRC(words),
		})
	})
}

// servePeer registers a healthy twin of db, served over HTTP, as db's
// only repair source.
func servePeer(t *testing.T, db, twin *DB) {
	t.Helper()
	peer := httptest.NewServer(peerHandler(t, twin))
	t.Cleanup(peer.Close)
	db.RegisterRepairSource(cluster.NewPeerRepairSource(peer.URL, nil))
	db.DropPlainRepair()
}

// columnState moves t.w into one of the states the repair chain must
// heal: at its boot code, re-hardened under another code (after any
// snapshot was written), or demoted to a residue sidecar.
func columnState(t *testing.T, db *DB, state string) {
	t.Helper()
	switch state {
	case "boot":
	case "rehardened":
		next, ok := an.NextSmaller(db.Hardened("t").MustColumn("w").Code())
		if !ok {
			t.Fatal("no smaller code for the 32-bit class")
		}
		if _, err := db.RehardenColumn("t", "w", next); err != nil {
			t.Fatal(err)
		}
	case "residue":
		if _, err := db.ResidueHardenColumn("t", "w", 8); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown column state %q", state)
	}
}

// TestRepairChainEquivalence is the repair-equivalence matrix: source
// {plain, snapshot, peer} x column state {boot code, re-hardened after
// the snapshot, residue-demoted; the peer on AN only} x {serial, pooled}
// x {Continuous, Early}. Two identically corrupted DBs heal - one from
// its plain mirror, one with the mirror dropped and only the source in
// its chain - through a supervised run followed by a scrub. Results,
// recovery reports and scrub counts must be identical, and the column
// must check clean afterwards: where the good values came from must be
// invisible to the query.
func TestRepairChainEquivalence(t *testing.T) {
	pool := NewPoolMorsel(4, 8) // tiny morsels: 100 rows become 13 tasks
	defer pool.Close()
	type cell struct{ source, state string }
	cells := []cell{
		{"plain", "boot"}, {"plain", "rehardened"}, {"plain", "residue"},
		{"snapshot", "boot"}, {"snapshot", "rehardened"}, {"snapshot", "residue"},
		{"peer", "boot"}, {"peer", "rehardened"},
	}
	prepare := func(t *testing.T, c cell) *DB {
		db := recoveryDB(t)
		switch c.source {
		case "snapshot":
			dir := t.TempDir()
			if err := db.SaveSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			src := NewSnapshotRepairSource(dir)
			t.Cleanup(func() { src.Close() })
			db.RegisterRepairSource(src)
			db.DropPlainRepair()
		case "peer":
			twin := recoveryDB(t)
			columnState(t, twin, c.state)
			servePeer(t, db, twin)
		}
		columnState(t, db, c.state)
		corruptW(t, db)
		return db
	}
	for _, c := range cells {
		for _, mode := range []Mode{Continuous, EarlyOnetime} {
			for _, pooled := range []bool{false, true} {
				name := c.source + "/" + c.state + "/" + mode.String() + "/serial"
				var opts []RecoveryOption
				if pooled {
					name = strings.TrimSuffix(name, "serial") + "pooled"
					opts = append(opts, WithRecoveryRunOptions(WithPool(pool)))
				}
				t.Run(name, func(t *testing.T) {
					heal := func(db *DB) (*ops.Result, *RecoveryReport, map[string]int) {
						res, rep, err := RunWithRecovery(db, mode, ops.Scalar, sumPlan, opts...)
						if err != nil {
							t.Fatal(err)
						}
						scrubbed, err := db.Scrub()
						if err != nil {
							t.Fatal(err)
						}
						return res, rep, scrubbed
					}
					ref := unprotectedRef(t, recoveryDB(t))
					wantRes, wantRep, wantScrub := heal(prepare(t, cell{"plain", c.state}))
					db := prepare(t, c)
					res, rep, scrubbed := heal(db)
					if !res.Equal(wantRes) {
						t.Fatal("result differs from the plain-healed run")
					}
					if !rep.Equal(wantRep) {
						t.Fatalf("recovery reports diverge:\nplain:  %v\n%s: %v", wantRep, c.source, rep)
					}
					if !reflect.DeepEqual(scrubbed, wantScrub) {
						t.Fatalf("scrub counts diverge: plain %v, %s %v", wantScrub, c.source, scrubbed)
					}
					if bad := db.Hardened("t").MustColumn("w").BadPositions(); len(bad) != 0 {
						t.Fatalf("column not clean after healing: %v", bad)
					}
					// Continuous kernels read a residue column as plain data,
					// so its flips reach the answer and only the scrub finds
					// them (the residue tier's documented window); every
					// other cell heals in the run itself.
					if c.state == "residue" && mode == Continuous {
						if scrubbed["t.w"] != 2 {
							t.Fatalf("scrub healed %v, want t.w:2", scrubbed)
						}
						return
					}
					if !res.Equal(ref) || rep.RepairedCount() != 2 || rep.Attempts != 2 {
						t.Fatalf("healed run: equal=%v report %v", res.Equal(ref), rep)
					}
				})
			}
		}
	}
}

// healsLikePlain corrupts dbPlain (plain mirror in its chain) and db
// (mirror dropped, one other source registered) identically, heals both
// through a supervised Continuous run, and requires byte-identical
// results and recovery reports and a clean column afterwards.
func healsLikePlain(t *testing.T, dbPlain, db *DB) {
	t.Helper()
	for _, src := range db.RepairSources() {
		if _, plain := src.(plainSource); plain {
			t.Fatal("plain repair must be gone after DropPlainRepair")
		}
	}
	ref := unprotectedRef(t, dbPlain)
	corruptW(t, dbPlain)
	corruptW(t, db)
	resPlain, repPlain, err := RunWithRecovery(dbPlain, Continuous, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(ref) || !res.Equal(resPlain) {
		t.Fatal("source-healed result differs from the plain-healed answer")
	}
	if !rep.Equal(repPlain) {
		t.Fatalf("recovery reports diverge:\nplain:  %v\nsource: %v", repPlain, rep)
	}
	if bad := db.Hardened("t").MustColumn("w").BadPositions(); len(bad) != 0 {
		t.Fatalf("column not clean after source repair: %v", bad)
	}
}

// TestSnapshotRepairHealsLikePlain: with the plain mirror dropped and
// only a local snapshot in the chain, a supervised run heals exactly as
// the plain-mirror run does.
func TestSnapshotRepairHealsLikePlain(t *testing.T) {
	dbPlain, dbSnap := recoveryDB(t), recoveryDB(t)
	dir := t.TempDir()
	if err := dbSnap.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	src := NewSnapshotRepairSource(dir)
	defer src.Close()
	dbSnap.RegisterRepairSource(src)
	dbSnap.DropPlainRepair()
	healsLikePlain(t, dbPlain, dbSnap)
}

// TestPeerRepairHealsLikePlain: with the plain mirror dropped and only a
// healthy peer over HTTP in the chain, a supervised run heals exactly as
// the plain-mirror run does.
func TestPeerRepairHealsLikePlain(t *testing.T) {
	dbPlain, dbVictim := recoveryDB(t), recoveryDB(t)
	servePeer(t, dbVictim, recoveryDB(t))
	healsLikePlain(t, dbPlain, dbVictim)
}

// TestRepairFailsWithoutAnySource: plain entry dropped, nothing
// registered - the chain cannot heal, so the run escalates: the column
// is quarantined and the failure is a structured *UnrecoverableError
// carrying the chain's reason. The corrupt word is never silently kept.
func TestRepairFailsWithoutAnySource(t *testing.T) {
	db := recoveryDB(t)
	db.DropPlainRepair()
	w := db.Hardened("t").MustColumn("w")
	w.Corrupt(15, 1<<4)
	res, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan)
	var unrec *UnrecoverableError
	if !errors.As(err, &unrec) || res != nil {
		t.Fatalf("want *UnrecoverableError and no result, got %v", err)
	}
	if unrec.Repair == nil || !strings.Contains(unrec.Repair.Error(), "repair chain is empty") {
		t.Fatalf("the chain's reason must travel with the error: %v", err)
	}
	if rep.Attempts != 1 || !reflect.DeepEqual(rep.Quarantined, []string{"w"}) || !db.IsQuarantined("w") {
		t.Fatalf("unhealable column must escalate into quarantine: %v", rep)
	}
	if bad := w.BadPositions(); !reflect.DeepEqual(bad, []uint64{15}) {
		t.Fatalf("corrupt word must stay visible, got bad=%v", bad)
	}
}

// TestUnhealableColumnDegrades: the same unhealable column with the
// degraded fallback enabled answers through DMR over the plain replicas.
func TestUnhealableColumnDegrades(t *testing.T) {
	db := recoveryDB(t)
	ref := unprotectedRef(t, db)
	db.DropPlainRepair()
	db.Hardened("t").MustColumn("w").Corrupt(15, 1<<4)
	res, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan, WithDegradedFallback(true))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.FinalMode != DMR || rep.Attempts != 1 || !reflect.DeepEqual(rep.Quarantined, []string{"w"}) {
		t.Fatalf("fallback report: %v", rep)
	}
	if !res.Equal(ref) {
		t.Fatal("degraded DMR result differs from the fault-free answer")
	}
}

// TestRepairRejectsCorruptSource: a snapshot whose words do not pass the
// AN check is refused whole - verify-on-receipt - so with no other
// source the run escalates rather than writing bad words.
func TestRepairRejectsCorruptSource(t *testing.T) {
	db := recoveryDB(t)
	dir := t.TempDir()

	// Snapshot a corrupted table, then corrupt the live column elsewhere:
	// the snapshot serves AN-invalid words for the chunk under repair.
	w := db.Hardened("t").MustColumn("w")
	good := w.Value(40)
	w.Corrupt(40, 1<<9)
	if err := db.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	w.Set(40, good) // heal the live copy; the snapshot stays dirty

	src := NewSnapshotRepairSource(dir)
	defer src.Close()
	db.RegisterRepairSource(src)
	db.DropPlainRepair()
	w.Corrupt(15, 1<<4)

	_, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan)
	var unrec *UnrecoverableError
	if !errors.As(err, &unrec) || !reflect.DeepEqual(rep.Quarantined, []string{"w"}) {
		t.Fatalf("a source serving invalid code words must not heal: %v (%v)", err, rep)
	}
	if !strings.Contains(err.Error(), "invalid code word") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The corrupt snapshot must not have been written into the column:
	// position 15 still carries the injected fault, nothing else changed.
	if bad := w.BadPositions(); !reflect.DeepEqual(bad, []uint64{15}) {
		t.Fatalf("rejected source must leave the column untouched, got bad=%v", bad)
	}
}

// TestRepairFetchHonoursDeadline: a peer that answers after 2 s must not
// hold a supervised run - and with it the repair lock - past the
// caller's 100 ms deadline. The chain fetches under the run's context,
// and an expired deadline is no verdict on the column.
func TestRepairFetchHonoursDeadline(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
		http.Error(w, "too late", http.StatusServiceUnavailable)
	}))
	defer slow.Close()
	db := recoveryDB(t)
	db.RegisterRepairSource(cluster.NewPeerRepairSource(slow.URL, nil))
	db.DropPlainRepair()
	db.Hardened("t").MustColumn("w").Corrupt(15, 1<<4)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan,
		WithRecoveryRunOptions(WithContext(ctx)), WithDegradedFallback(true))
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("supervised run took %v past a 100ms deadline", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if db.IsQuarantined("w") {
		t.Fatal("an expired deadline must not quarantine the column")
	}
}

// TestRepairLockSerializesHealers: every entry point that writes
// repaired words holds the repair lock, so a supervised run racing a
// scrub, or a re-harden that repairs from a peer, over the same corrupt
// words stays race-free (run under -race) and ends correct and clean.
func TestRepairLockSerializesHealers(t *testing.T) {
	for _, rival := range []string{"scrub", "reharden-peer"} {
		t.Run(rival, func(t *testing.T) {
			db := recoveryDB(t)
			ref := unprotectedRef(t, db)
			next, _ := an.NextSmaller(db.Hardened("t").MustColumn("w").Code())
			if rival == "reharden-peer" {
				servePeer(t, db, recoveryDB(t))
			}
			corruptW(t, db)
			var wg sync.WaitGroup
			var res *ops.Result
			var runErr, rivalErr error
			wg.Add(2)
			go func() {
				defer wg.Done()
				res, _, runErr = RunWithRecovery(db, Continuous, ops.Scalar, sumPlan)
			}()
			go func() {
				defer wg.Done()
				if rival == "scrub" {
					_, rivalErr = db.Scrub()
				} else {
					_, rivalErr = db.RehardenColumn("t", "w", next)
				}
			}()
			wg.Wait()
			if runErr != nil || rivalErr != nil {
				t.Fatalf("run: %v, %s: %v", runErr, rival, rivalErr)
			}
			if !res.Equal(ref) {
				t.Fatal("supervised run returned a wrong answer")
			}
			if bad := db.Hardened("t").MustColumn("w").BadPositions(); len(bad) != 0 {
				t.Fatalf("column not clean: %v", bad)
			}
		})
	}
}

// TestSnapshotRoundTripDifferential: write a snapshot, reload it from
// disk, swap it in as the hardened store (packed mirrors rebuilt by the
// loader), and require the full mode matrix to reproduce the in-memory
// DB's answers exactly - the CI round-trip gate.
func TestSnapshotRoundTripDifferential(t *testing.T) {
	db := recoveryDB(t)
	dir := t.TempDir()
	if err := db.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	loaded, repairable, err := storage.LoadTable(dir + "/t")
	if err != nil {
		t.Fatal(err)
	}
	if len(repairable) != 0 {
		t.Fatalf("clean snapshot reported repairable positions: %v", repairable)
	}

	db2 := recoveryDB(t)
	if err := db2.UseHardened(loaded); err != nil {
		t.Fatal(err)
	}
	if err := db2.UseHardened(storage.NewTable("nope")); err == nil {
		t.Fatal("UseHardened must reject unknown tables")
	}

	for _, mode := range []Mode{Unprotected, EarlyOnetime, LateOnetime, Continuous, ContinuousReencoding} {
		want, _, err := Run(db, mode, ops.Scalar, sumPlan)
		if err != nil {
			t.Fatalf("%v in-memory: %v", mode, err)
		}
		got, log, err := Run(db2, mode, ops.Scalar, sumPlan)
		if err != nil {
			t.Fatalf("%v reloaded: %v", mode, err)
		}
		if !want.Equal(got) {
			t.Fatalf("%v: reloaded snapshot diverges from the in-memory DB", mode)
		}
		if log.Count() != 0 {
			t.Fatalf("%v: %d errors logged on a clean reloaded snapshot", mode, log.Count())
		}
	}
	forSnapshotRoundTrip(t)
}

// forTables is testTables plus a yyyymmdd column d, which hardens from a
// frame of reference.
func forTables(t *testing.T) []*storage.Table {
	t.Helper()
	tbs := testTables(t)
	d, err := storage.NewColumn("d", storage.Int)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		d.Append(19920101 + i*i*97%61130)
	}
	if err := tbs[0].AddColumn(d); err != nil {
		t.Fatal(err)
	}
	return tbs
}

// datePlan sums d over the rows whose d lies in a date range - a
// predicate, a gather and a sum over the frame-of-reference column.
func datePlan(q *Query) (*ops.Result, error) {
	dCol, err := q.Col("t", "d")
	if err != nil {
		return nil, err
	}
	sel, err := ops.Filter(dCol, 19920101+500, 19920101+40000, q.Opts())
	if err != nil {
		return nil, err
	}
	vec, err := ops.Gather(dCol, sel, q.Opts())
	if err != nil {
		return nil, err
	}
	sum, err := ops.SumTotal(q.PreAggregate(vec), q.Opts())
	if err != nil {
		return nil, err
	}
	return q.FinishScalar(sum)
}

// forSnapshotRoundTrip is TestSnapshotRoundTripDifferential over a
// fixture with a frame-of-reference column: the snapshot carries its
// base, and the reloaded DB answers every mode as the in-memory one and
// as the unprotected reference do.
func forSnapshotRoundTrip(t *testing.T) {
	t.Helper()
	db, err := NewDB(forTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	if base := db.Hardened("t").MustColumn("d").Base(); base != 19920101 {
		t.Fatalf("setup: d hardened from base %d", base)
	}
	dir := t.TempDir()
	if err := db.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	loaded, repairable, err := storage.LoadTable(dir + "/t")
	if err != nil || len(repairable) != 0 {
		t.Fatalf("load: %v, %v", repairable, err)
	}
	if got := loaded.MustColumn("d").Base(); got != 19920101 {
		t.Fatalf("reloaded d from base %d", got)
	}
	db2, err := NewDB(forTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.UseHardened(loaded); err != nil {
		t.Fatal(err)
	}
	ref, _, err := Run(db, Unprotected, ops.Scalar, datePlan)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Aggs[0] == 0 {
		t.Fatal("the date range selects nothing")
	}
	for _, mode := range []Mode{Unprotected, EarlyOnetime, LateOnetime, Continuous, ContinuousReencoding} {
		want, _, err := Run(db, mode, ops.Scalar, datePlan)
		if err != nil {
			t.Fatalf("FOR %v in-memory: %v", mode, err)
		}
		got, log, err := Run(db2, mode, ops.Scalar, datePlan)
		if err != nil {
			t.Fatalf("FOR %v reloaded: %v", mode, err)
		}
		if !want.Equal(got) || !want.Equal(ref) {
			t.Fatalf("FOR %v: in-memory %v, reloaded %v, reference %v", mode, want.Aggs, got.Aggs, ref.Aggs)
		}
		if log.Count() != 0 {
			t.Fatalf("FOR %v: %d errors logged on a clean reloaded snapshot", mode, log.Count())
		}
	}
}
