package exec

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ahead/internal/faults"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

func recoveryDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func unprotectedRef(t *testing.T, db *DB) *ops.Result {
	t.Helper()
	ref, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestRecoveryCleanRun(t *testing.T) {
	db := recoveryDB(t)
	ref := unprotectedRef(t, db)
	res, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 1 || rep.RepairedCount() != 0 || rep.Degraded || len(rep.Quarantined) != 0 {
		t.Fatalf("clean run report: %v", rep)
	}
	if !res.Equal(ref) {
		t.Fatal("clean run result differs from baseline")
	}
}

// TestRecoveryTransient is the acceptance path: injected transient flips
// are detected on the fly, repaired from the plain replica, and the
// retry returns the fault-free answer plus a report of the repaired
// positions.
func TestRecoveryTransient(t *testing.T) {
	db := recoveryDB(t)
	ref := unprotectedRef(t, db)
	w := db.Hardened("t").MustColumn("w")
	inj := faults.NewInjector(21)
	for _, pos := range []int{15, 16} { // inside the sumPlan filter range
		if _, err := inj.FlipAt(w, pos, 2); err != nil {
			t.Fatal(err)
		}
	}

	res, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(ref) {
		t.Fatal("recovered result differs from the fault-free answer")
	}
	if rep.Attempts != 2 {
		t.Fatalf("attempts %d, want 2 (one repair round)", rep.Attempts)
	}
	if got := rep.Repaired["w"]; !reflect.DeepEqual(got, []uint64{15, 16}) {
		t.Fatalf("repaired positions %v, want [15 16]", got)
	}
	if rep.RepairedCount() != 2 || !reflect.DeepEqual(rep.RepairedColumns(), []string{"w"}) {
		t.Fatalf("repair accounting: %v", rep)
	}
	if rep.Intermediate == 0 {
		t.Fatal("gathered intermediates must have logged vec: detections")
	}
	if rep.Degraded || len(rep.Quarantined) != 0 || rep.FinalMode != Continuous {
		t.Fatalf("transient recovery must not escalate: %v", rep)
	}
	if bad, err := w.CheckAll(); err != nil || len(bad) != 0 {
		t.Fatalf("column not clean after recovery: %v, %v", bad, err)
	}
}

// TestRecoveryStuckAtQuarantines is the other acceptance path: a
// persistent fault survives every repair, exhausts the retry budget,
// quarantines the column, and yields a structured unrecoverable error
// instead of looping. A subsequent run short-circuits on the quarantine,
// and enabling the degraded fallback then still answers the query via
// DMR over the plain replicas.
func TestRecoveryStuckAtQuarantines(t *testing.T) {
	db := recoveryDB(t)
	ref := unprotectedRef(t, db)
	w := db.Hardened("t").MustColumn("w")
	set := faults.NewStuckSet()
	if _, err := set.StickAt(faults.NewInjector(33), w, 15, 2); err != nil {
		t.Fatal(err)
	}

	res, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan,
		WithReassert(func() { set.Reassert() }))
	var unrec *UnrecoverableError
	if !errors.As(err, &unrec) {
		t.Fatalf("want *UnrecoverableError, got %v", err)
	}
	if res != nil {
		t.Fatal("unrecoverable run must not return a result")
	}
	if rep.Attempts != 1+DefaultMaxRetries {
		t.Fatalf("attempts %d, want %d (budget exhaustion, not an endless loop)", rep.Attempts, 1+DefaultMaxRetries)
	}
	if !reflect.DeepEqual(rep.Quarantined, []string{"w"}) || !db.IsQuarantined("w") {
		t.Fatalf("column not quarantined: %v", rep)
	}
	if unrec.Attempts != rep.Attempts || len(unrec.Columns) == 0 || unrec.Columns[0] != "w" {
		t.Fatalf("structured error: %+v", unrec)
	}
	if got := rep.Repaired["w"]; !reflect.DeepEqual(got, []uint64{15}) {
		t.Fatalf("stuck position must be repaired (and re-corrupted) each round: %v", got)
	}

	// Second supervised run: the quarantine short-circuits the budget.
	_, rep2, err2 := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan,
		WithReassert(func() { set.Reassert() }))
	if !errors.As(err2, &unrec) {
		t.Fatalf("quarantined column must stay unrecoverable, got %v", err2)
	}
	if rep2.Attempts != 1 {
		t.Fatalf("quarantined column burned %d attempts, want 1", rep2.Attempts)
	}

	// Degraded fallback: DMR over the plain replicas is untouched by the
	// hardened-data fault and still answers correctly.
	resD, repD, errD := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan,
		WithReassert(func() { set.Reassert() }), WithDegradedFallback(true))
	if errD != nil {
		t.Fatal(errD)
	}
	if !repD.Degraded || repD.FinalMode != DMR || repD.Attempts != 1 {
		t.Fatalf("fallback report: %v", repD)
	}
	if !resD.Equal(ref) {
		t.Fatal("degraded DMR result differs from the fault-free answer")
	}

	// After hardware replacement: release the fault, scrub, lift the
	// quarantine - the hardened path recovers fully.
	set.Release()
	repaired, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if repaired["t.w"] != 1 {
		t.Fatalf("scrub repaired %v, want t.w:1", repaired)
	}
	db.ClearQuarantine("w")
	resC, repC, errC := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan)
	if errC != nil || repC.Attempts != 1 || !resC.Equal(ref) {
		t.Fatalf("post-scrub run: %v %v", repC, errC)
	}
}

// TestRecoveryStuckAtDegradedFallbackDirect exhausts the budget with the
// fallback already enabled on a fresh DB.
func TestRecoveryStuckAtDegradedFallbackDirect(t *testing.T) {
	db := recoveryDB(t)
	ref := unprotectedRef(t, db)
	set := faults.NewStuckSet()
	if _, err := set.StickAt(faults.NewInjector(5), db.Hardened("t").MustColumn("w"), 16, 2); err != nil {
		t.Fatal(err)
	}
	res, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan,
		WithReassert(func() { set.Reassert() }), WithDegradedFallback(true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 1+DefaultMaxRetries || !rep.Degraded || rep.FinalMode != DMR {
		t.Fatalf("report: %v", rep)
	}
	if !reflect.DeepEqual(rep.Quarantined, []string{"w"}) {
		t.Fatalf("quarantine: %v", rep.Quarantined)
	}
	if !res.Equal(ref) {
		t.Fatal("degraded result differs from the fault-free answer")
	}
}

// TestRecoveryParallelMatchesSerial injects identical transient faults
// into two DBs and supervises one serially, one on a small-morsel pool:
// results and RecoveryReports must be identical (the PR 1 equivalence
// invariant extended through the recovery loop).
func TestRecoveryParallelMatchesSerial(t *testing.T) {
	inject := func(db *DB) {
		w := db.Hardened("t").MustColumn("w")
		inj := faults.NewInjector(21)
		for _, pos := range []int{12, 15, 61} {
			if _, err := inj.FlipAt(w, pos, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	dbS, dbP := recoveryDB(t), recoveryDB(t)
	inject(dbS)
	inject(dbP)

	resS, repS, errS := RunWithRecovery(dbS, Continuous, ops.Scalar, sumPlan)
	if errS != nil {
		t.Fatal(errS)
	}
	pool := NewPoolMorsel(4, 8) // tiny morsels: 100 rows become 13 tasks
	defer pool.Close()
	resP, repP, errP := RunWithRecovery(dbP, Continuous, ops.Scalar, sumPlan,
		WithRecoveryRunOptions(WithPool(pool)))
	if errP != nil {
		t.Fatal(errP)
	}
	if !resS.Equal(resP) {
		t.Fatal("parallel recovered result diverges from serial")
	}
	if !repS.Equal(repP) {
		t.Fatalf("recovery reports diverge:\nserial:   %v\nparallel: %v", repS, repP)
	}
	if repS.Attempts != 2 || repS.RepairedCount() != 3 {
		t.Fatalf("unexpected serial report: %v", repS)
	}
}

// TestRecoveryNonHardenedModes: no value-granular detection, so exactly
// one attempt and no repair machinery.
func TestRecoveryNonHardenedModes(t *testing.T) {
	db := recoveryDB(t)
	ref := unprotectedRef(t, db)
	for _, m := range []Mode{Unprotected, DMR, TMR} {
		res, rep, err := RunWithRecovery(db, m, ops.Scalar, sumPlan)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if rep.Attempts != 1 || rep.RepairedCount() != 0 {
			t.Fatalf("%v report: %v", m, rep)
		}
		if !res.Equal(ref) {
			t.Fatalf("%v result differs", m)
		}
	}
}

func TestRecoveryMaxRetriesZero(t *testing.T) {
	db := recoveryDB(t)
	db.Hardened("t").MustColumn("w").Corrupt(15, 1<<4)
	_, rep, err := RunWithRecovery(db, Continuous, ops.Scalar, sumPlan, WithMaxRetries(0))
	var unrec *UnrecoverableError
	if !errors.As(err, &unrec) {
		t.Fatalf("zero budget must be unrecoverable on first detection, got %v", err)
	}
	if rep.Attempts != 1 {
		t.Fatalf("attempts %d, want 1", rep.Attempts)
	}
}

func TestTableOf(t *testing.T) {
	tb1 := storage.NewTable("a")
	tb2 := storage.NewTable("b")
	for name, tb := range map[string]*storage.Table{"a": tb1, "b": tb2} {
		c, err := storage.NewColumn("only_"+name, storage.TinyInt)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := storage.NewColumn("shared", storage.TinyInt)
		if err != nil {
			t.Fatal(err)
		}
		c.Append(1)
		shared.Append(1)
		if err := tb.AddColumn(c); err != nil {
			t.Fatal(err)
		}
		if err := tb.AddColumn(shared); err != nil {
			t.Fatal(err)
		}
	}
	db, err := NewDB([]*storage.Table{tb1, tb2}, storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	if tab, ok := db.TableOf("only_a"); !ok || tab != "a" {
		t.Fatalf("only_a → %q, %v", tab, ok)
	}
	if _, ok := db.TableOf("shared"); ok {
		t.Fatal("ambiguous column must not attribute")
	}
	if _, ok := db.TableOf("missing"); ok {
		t.Fatal("unknown column must not attribute")
	}
}

func TestScrub(t *testing.T) {
	db := recoveryDB(t)
	db.Hardened("t").MustColumn("w").Corrupt(3, 1<<6)
	db.Hardened("t").MustColumn("w").Corrupt(90, 1<<2)
	db.Hardened("t").MustColumn("v").Corrupt(7, 1<<1)
	repaired, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if repaired["t.w"] != 2 || repaired["t.v"] != 1 {
		t.Fatalf("scrub counts %v", repaired)
	}
	for _, name := range []string{"v", "w"} {
		if bad, err := db.Hardened("t").MustColumn(name).CheckAll(); err != nil || len(bad) != 0 {
			t.Fatalf("%s not clean after scrub: %v, %v", name, bad, err)
		}
	}
	again, err := db.Scrub()
	if err != nil || len(again) != 0 {
		t.Fatalf("clean scrub: %v, %v", again, err)
	}
}

func TestQuarantineAPI(t *testing.T) {
	db := recoveryDB(t)
	if db.IsQuarantined("w") || len(db.QuarantinedColumns()) != 0 {
		t.Fatal("fresh DB must have an empty quarantine")
	}
	db.QuarantineColumn("w")
	db.QuarantineColumn("a")
	if !db.IsQuarantined("w") || !reflect.DeepEqual(db.QuarantinedColumns(), []string{"a", "w"}) {
		t.Fatalf("quarantine set: %v", db.QuarantinedColumns())
	}
	db.ClearQuarantine("a")
	if db.IsQuarantined("a") || !db.IsQuarantined("w") {
		t.Fatal("selective clear")
	}
	db.ClearQuarantine()
	if len(db.QuarantinedColumns()) != 0 {
		t.Fatal("full clear")
	}
}

// strideDB is testTables' schema over more than two stop strides, so a
// supervised first attempt can stop before the end of its scans.
func strideDB(t *testing.T) *DB {
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
	for i := uint64(0); i < 2*ops.StopStride+ops.StopStride/2; i++ {
		v.Append(i % 50)
		w.Append(i * 100)
	}
	for _, c := range []*storage.Column{v, w} {
		if err := tb.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	db, err := NewDB([]*storage.Table{tb}, storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRecoveryStoppedFirstAttempt: the supervised first attempt stops at
// its first detecting stride. One flip heals in two attempts, as before;
// flips in strides 0 and 2 take one attempt more - the stopped one found
// only the first - with the same report serial and pooled, and the
// stopped attempt is not charged to the retry budget.
func TestRecoveryStoppedFirstAttempt(t *testing.T) {
	flipV := func(db *DB, positions ...int) {
		v := db.Hardened("t").MustColumn("v")
		inj := faults.NewInjector(7)
		for _, p := range positions {
			if _, err := inj.FlipAt(v, p, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	early, late := 15, 2*ops.StopStride+15
	for _, m := range []Mode{EarlyOnetime, Continuous, ContinuousReencoding} {
		db := strideDB(t)
		ref := unprotectedRef(t, db)
		flipV(db, early)
		res, rep, err := RunWithRecovery(db, m, ops.Blocked, sumPlan)
		if err != nil {
			t.Fatalf("%v one flip: %v", m, err)
		}
		if rep.Attempts != 2 || rep.RepairedCount() != 1 || !res.Equal(ref) {
			t.Fatalf("%v one flip: %v, result equal %v", m, rep, res.Equal(ref))
		}

		dbS, dbP := strideDB(t), strideDB(t)
		flipV(dbS, early, late)
		flipV(dbP, early, late)
		resS, repS, errS := RunWithRecovery(dbS, m, ops.Blocked, sumPlan)
		pool := NewPoolMorsel(4, 8)
		resP, repP, errP := RunWithRecovery(dbP, m, ops.Blocked, sumPlan, WithRecoveryRunOptions(WithPool(pool)))
		pool.Close()
		if errS != nil || errP != nil {
			t.Fatalf("%v two strides: %v / %v", m, errS, errP)
		}
		if repS.Attempts != 3 || !reflect.DeepEqual(repS.Repaired["v"], []uint64{uint64(early), uint64(late)}) {
			t.Fatalf("%v two strides: %v", m, repS)
		}
		if !repS.Equal(repP) || !resS.Equal(resP) || !resS.Equal(ref) {
			t.Fatalf("%v two strides:\nserial: %v\npooled: %v", m, repS, repP)
		}

		db = strideDB(t)
		flipV(db, early, late)
		res, rep, err = RunWithRecovery(db, m, ops.Blocked, sumPlan, WithMaxRetries(1))
		if err != nil || rep.Attempts != 3 || !res.Equal(ref) {
			t.Fatalf("%v with one retry: %v, %v", m, rep, err)
		}
	}
}

// TestRecoveryStoppedStuckAt: a stuck-at word quarantines after as many
// full runs as without the stop - the stopped attempt is one more.
func TestRecoveryStoppedStuckAt(t *testing.T) {
	db := strideDB(t)
	set := faults.NewStuckSet()
	if _, err := set.StickAt(faults.NewInjector(33), db.Hardened("t").MustColumn("v"), 15, 2); err != nil {
		t.Fatal(err)
	}
	_, rep, err := RunWithRecovery(db, Continuous, ops.Blocked, sumPlan, WithReassert(func() { set.Reassert() }))
	var unrec *UnrecoverableError
	if !errors.As(err, &unrec) {
		t.Fatalf("want *UnrecoverableError, got %v", err)
	}
	if rep.Attempts != 2+DefaultMaxRetries || !reflect.DeepEqual(rep.Quarantined, []string{"v"}) {
		t.Fatalf("report %v, want %d attempts and v quarantined", rep, 2+DefaultMaxRetries)
	}
}

// flipStrides flips v in stride 0 and w in stride 2 of a strideDB: the
// stopped first attempt sees the v flip only (the filter on v stops
// before the gather of w), a full run sees both. wLate is selected by
// sumPlan's filter (v = 10).
func flipStrides(t *testing.T, db *DB) (early, wLate uint64) {
	t.Helper()
	early, wLate = 15, 2*ops.StopStride+22
	inj := faults.NewInjector(7)
	if _, err := inj.FlipAt(db.Hardened("t").MustColumn("v"), int(early), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := inj.FlipAt(db.Hardened("t").MustColumn("w"), int(wLate), 2); err != nil {
		t.Fatal(err)
	}
	return early, wLate
}

// TestRecoveryStoppedZeroBudget: a zero budget escalates on the first
// detection, from the log of a full run - both columns quarantined,
// nothing repaired, one attempt.
func TestRecoveryStoppedZeroBudget(t *testing.T) {
	db := strideDB(t)
	flipStrides(t, db)
	_, rep, err := RunWithRecovery(db, Continuous, ops.Blocked, sumPlan, WithMaxRetries(0))
	var unrec *UnrecoverableError
	if !errors.As(err, &unrec) {
		t.Fatalf("zero budget must be unrecoverable on first detection, got %v", err)
	}
	if rep.Attempts != 1 || rep.RepairedCount() != 0 || !reflect.DeepEqual(rep.Quarantined, []string{"v", "w"}) {
		t.Fatalf("report %v, want 1 attempt, nothing repaired, v and w quarantined", rep)
	}
}

// TestRecoveryStoppedQuarantined: with a column already quarantined the
// first attempt escalates from the log of a full run, whichever stride
// the quarantined column's flip is in - both columns quarantined,
// nothing repaired.
func TestRecoveryStoppedQuarantined(t *testing.T) {
	for _, known := range []string{"v", "w"} {
		db := strideDB(t)
		flipStrides(t, db)
		db.QuarantineColumn(known)
		_, rep, err := RunWithRecovery(db, Continuous, ops.Blocked, sumPlan)
		var unrec *UnrecoverableError
		if !errors.As(err, &unrec) {
			t.Fatalf("%s quarantined: want *UnrecoverableError, got %v", known, err)
		}
		if rep.Attempts != 1 || rep.RepairedCount() != 0 || !reflect.DeepEqual(rep.Quarantined, []string{"v", "w"}) {
			t.Fatalf("%s quarantined: report %v, want 1 attempt, nothing repaired, v and w quarantined", known, rep)
		}
	}
}

// failingSource is a repair chain that serves the plain mirror of every
// column but one, counting its fetches.
type failingSource struct {
	plain  plainSource
	column string
	calls  map[string]int
}

func (failingSource) Name() string { return "failing" }

func (s failingSource) Values(ctx context.Context, table string, hc *storage.Column, positions []uint64) ([]uint64, error) {
	s.calls[hc.Name()]++
	if hc.Name() == s.column {
		return nil, errors.New("no replica")
	}
	return s.plain.Values(ctx, table, hc, positions)
}

// TestRecoveryStoppedRepairFails: a column the stopped attempt cannot
// repair escalates from the log of a full run, which repairs the other
// column's flip beyond the stop point first - what a first attempt run
// to the end does - without fetching the failed column again.
func TestRecoveryStoppedRepairFails(t *testing.T) {
	db := strideDB(t)
	_, wLate := flipStrides(t, db)
	src := failingSource{plain: plainSource{db}, column: "v", calls: make(map[string]int)}
	db.DropPlainRepair()
	db.RegisterRepairSource(src)
	_, rep, err := RunWithRecovery(db, Continuous, ops.Blocked, sumPlan)
	var unrec *UnrecoverableError
	if !errors.As(err, &unrec) || unrec.Repair == nil {
		t.Fatalf("want *UnrecoverableError with a repair error, got %v", err)
	}
	if rep.Attempts != 2 || !reflect.DeepEqual(rep.Quarantined, []string{"v"}) ||
		!reflect.DeepEqual(rep.Repaired, map[string][]uint64{"w": {wLate}}) {
		t.Fatalf("report %v, want 2 attempts, v quarantined, w repaired at %d", rep, wLate)
	}
	if src.calls["v"] != 1 || src.calls["w"] != 1 {
		t.Fatalf("fetches %v, want one per column", src.calls)
	}
}
