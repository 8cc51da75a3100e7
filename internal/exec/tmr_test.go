package exec

import (
	"sync"
	"testing"

	"ahead/internal/ops"
	"ahead/internal/storage"
)

func TestTMRMasksSingleReplicaFault(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	// Clean TMR agrees with the baseline.
	res, _, err := Run(db, TMR, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(ref) {
		t.Fatal("clean TMR result differs")
	}
	// Corrupt one replica inside the aggregated range: the majority
	// masks it and the query still returns the correct result - the
	// correction DMR cannot do.
	db.replica2["t"].MustColumn("w").Corrupt(15, 1<<10)
	res, _, err = Run(db, TMR, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatalf("TMR must mask a single faulty replica: %v", err)
	}
	if !res.Equal(ref) {
		t.Fatal("TMR returned the corrupted result")
	}
	// Under the same fault, DMR (which compares plain vs replica only)
	// still succeeds because its two copies agree; but if the *first*
	// replica diverges too, TMR has no majority.
	db.replica["t"].MustColumn("w").Corrupt(15, 1<<11)
	db.plain["t"].MustColumn("w").Corrupt(15, 1<<12)
	if _, _, err := Run(db, TMR, ops.Scalar, sumPlan); err == nil {
		t.Fatal("three diverging replicas must fail the vote")
	}
}

func TestTMRStorageAndNaming(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	if db.StorageBytes(TMR) != 3*db.StorageBytes(Unprotected) {
		t.Fatal("TMR storage must be 3x")
	}
	if TMR.String() != "TMR" {
		t.Fatal("name")
	}
	if TMR.UsesHardenedData() {
		t.Fatal("TMR runs on plain replicas")
	}
	for _, m := range Modes {
		if m == TMR {
			t.Fatal("TMR is an extension, not one of the paper's six modes")
		}
	}
}

func TestRepairHardenedFromReplica(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	w := db.Hardened("t").MustColumn("w")
	w.Corrupt(15, 1<<9) // inside the sumPlan range (v=15)
	w.Corrupt(16, 1<<3)

	// Continuous detects both, once in the gather against the base
	// column and once more in the aggregation's re-check of the
	// intermediate vector (flagged under the vec: namespace)...
	_, log, err := Run(db, Continuous, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if log.Count() != 4 {
		t.Fatalf("detected %d, want 4 (2 base + 2 intermediate)", log.Count())
	}
	if vecPos, err := log.Positions(ops.VecLogName("w")); err != nil || len(vecPos) != 2 {
		t.Fatalf("intermediate entries: %v, %v", vecPos, err)
	}
	// ...repair restores them from the plain replica...
	n, err := db.RepairHardened("t", "w", log)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("repaired %d, want 2", n)
	}
	// ...and the next run is clean and correct.
	ref, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	res, log2, err := Run(db, Continuous, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if log2.Count() != 0 {
		t.Fatalf("residual detections after repair: %d", log2.Count())
	}
	if !res.Equal(ref) {
		t.Fatal("repaired result differs from baseline")
	}
}

func TestRepairHardenedValidation(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	log := ops.NewErrorLog()
	if _, err := db.RepairHardened("missing", "w", log); err == nil {
		t.Error("unknown table must error")
	}
	if _, err := db.RepairHardened("t", "missing", log); err == nil {
		// Empty log means no positions; missing column only matters
		// when there are entries.
		log.Record("missing", 0)
		if _, err := db.RepairHardened("t", "missing", log); err == nil {
			t.Error("unknown column must error")
		}
	}
	log.Reset()
	log.Record("w", 1<<20) // beyond the 100-row column
	if _, err := db.RepairHardened("t", "w", log); err == nil {
		t.Error("out-of-range position must error")
	}
}

func TestTMRReplicaIsBuiltOnFirstUse(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes {
		if _, _, err := Run(db, m, ops.Scalar, sumPlan); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
	if db.replica2 != nil || db.ResidentBytes().TMR != 0 {
		t.Fatal("a DB that never ran TMR holds a third copy")
	}
	if _, _, err := Run(db, TMR, ops.Scalar, sumPlan); err != nil {
		t.Fatal(err)
	}
	r := db.ResidentBytes()
	if r.TMR == 0 || r.TMR != r.DMR {
		t.Fatalf("TMR replica holds %d bytes, the DMR replica %d", r.TMR, r.DMR)
	}
}

// TestTMRReplicaIgnoresPlainMirrorFlips plants a flip in the plain
// mirror before the first TMR query. The lazily built third copy comes
// from the hardened tables, so the two clean replicas outvote the
// mirror; a copy of the mirror would carry the flip into two voters.
func TestTMRReplicaIgnoresPlainMirrorFlips(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	db.Plain("t").MustColumn("w").Corrupt(15, 1<<10) // inside the sumPlan range
	res, _, err := Run(db, TMR, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatalf("TMR must mask the flipped mirror: %v", err)
	}
	if !res.Equal(ref) {
		t.Fatal("TMR returned the flipped mirror's answer")
	}
	// The divergence is real: DMR, which compares the mirror with its
	// replica, reports it.
	if _, _, err := Run(db, DMR, ops.Scalar, sumPlan); err == nil {
		t.Fatal("DMR must report the flipped mirror")
	}
}

// TestTMRReplicaHealsHardenedFlipsFirst corrupts the hardened source of
// the build: the flipped positions are repaired through the chain
// before they are decoded into the third copy.
func TestTMRReplicaHealsHardenedFlipsFirst(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	corruptW(t, db)
	res, _, err := Run(db, TMR, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(ref) {
		t.Fatal("TMR answer differs after a hardened flip")
	}
	if bad := db.Hardened("t").MustColumn("w").BadPositions(); len(bad) != 0 {
		t.Fatalf("the build left %v unrepaired", bad)
	}
	// All three voters now agree on their own.
	for i, tb := range []*storage.Table{db.Plain("t"), db.Replica("t"), db.replica2["t"]} {
		if got := tb.MustColumn("w").Value(15); got != 1500 {
			t.Fatalf("voter %d reads %d at row 15, want 1500", i, got)
		}
	}
}

// TestTMRReplicaBuildsOnceUnderConcurrency issues the first TMR query
// from eight goroutines at once: one build, eight identical answers.
func TestTMRReplicaBuildsOnceUnderConcurrency(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	results := make([]*ops.Result, n)
	errs := make([]error, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			results[i], _, errs[i] = Run(db, TMR, ops.Scalar, sumPlan)
		}(i)
	}
	start.Done()
	done.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !results[i].Equal(ref) {
			t.Fatalf("query %d answered differently", i)
		}
	}
	if db.tmrBuilds != 1 {
		t.Fatalf("%d TMR replica builds, want 1", db.tmrBuilds)
	}
}
