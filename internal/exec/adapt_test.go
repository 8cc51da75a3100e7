package exec

import (
	"sync"
	"testing"

	"ahead/internal/an"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

func adaptDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func codingFor(t *testing.T, db *DB, column string) ColumnCoding {
	t.Helper()
	for _, cc := range db.ColumnCodings() {
		if cc.Table == "t" && cc.Column == column {
			return cc
		}
	}
	t.Fatalf("no coding for t.%s", column)
	return ColumnCoding{}
}

func TestColumnCodingsReflectState(t *testing.T) {
	db := adaptDB(t)
	// w's values (at most 9900) occupy 14 bits: Table.Harden narrows it.
	cc := codingFor(t, db, "w")
	if cc.Scheme != "an" || cc.A != 63877 || cc.DataBits != 14 || cc.CodeBits != 30 || cc.Rows != 100 {
		t.Fatalf("unexpected coding %+v", cc)
	}
	if _, err := db.ResidueHardenColumn("t", "w", 8); err != nil {
		t.Fatal(err)
	}
	cc = codingFor(t, db, "w")
	if cc.Scheme != "residue" || cc.ResidueBits != 8 || cc.DataBits != 32 {
		t.Fatalf("unexpected post-demotion coding %+v", cc)
	}
}

func TestRehardenColumnKeepsResultsAndOldColumn(t *testing.T) {
	db := adaptDB(t)
	ref, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	old, err := db.Hardened("t").Column("w")
	if err != nil {
		t.Fatal(err)
	}
	oldA := old.Code().A()

	next, ok := an.NextLarger(old.Code())
	if !ok {
		// Already at the strongest published A; step down instead so the
		// swap still exercises a code change.
		if next, ok = an.NextSmaller(old.Code()); !ok {
			t.Fatal("no alternative code for 32-bit class")
		}
	}
	bytes, err := db.RehardenColumn("t", "w", next)
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 0 {
		t.Fatalf("re-encoded %d bytes", bytes)
	}
	if old.Code().A() != oldA {
		t.Fatal("swap mutated the old column's code")
	}
	now, err := db.Hardened("t").Column("w")
	if err != nil {
		t.Fatal(err)
	}
	if now == old || now.Code().A() != next.A() {
		t.Fatalf("hardened table still serves A=%d", now.Code().A())
	}
	for _, m := range Modes {
		res, log, err := Run(db, m, ops.Scalar, sumPlan)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if log.Count() != 0 {
			t.Fatalf("%v: spurious detections after reharden", m)
		}
		if !res.Equal(ref) {
			t.Fatalf("%v: result diverged after reharden", m)
		}
	}
}

func TestRehardenRepairsCorruptionBeforeSwap(t *testing.T) {
	db := adaptDB(t)
	ref, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := db.Hardened("t").Column("w")
	if err != nil {
		t.Fatal(err)
	}
	hc.Corrupt(13, 1<<9)
	hc.Corrupt(57, 1<<3)
	next, ok := an.NextSmaller(hc.Code())
	if !ok {
		t.Fatal("no smaller code")
	}
	if _, err := db.RehardenColumn("t", "w", next); err != nil {
		t.Fatal(err)
	}
	now, err := db.Hardened("t").Column("w")
	if err != nil {
		t.Fatal(err)
	}
	if bad, err := now.CheckAll(); err != nil || len(bad) != 0 {
		t.Fatalf("corruption survived the re-encode: bad=%v err=%v", bad, err)
	}
	res, log, err := Run(db, Continuous, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if log.Count() != 0 || !res.Equal(ref) {
		t.Fatalf("post-reharden run: %d detections, equal=%v", log.Count(), res.Equal(ref))
	}
}

func TestRehardenRefusesUnrepairableCorruption(t *testing.T) {
	db := adaptDB(t)
	db.DropPlainRepair()
	hc, err := db.Hardened("t").Column("w")
	if err != nil {
		t.Fatal(err)
	}
	hc.Corrupt(13, 1<<9)
	next, _ := an.NextSmaller(hc.Code())
	if _, err := db.RehardenColumn("t", "w", next); err == nil {
		t.Fatal("re-encoded a corrupt column with no repair source")
	}
	now, err := db.Hardened("t").Column("w")
	if err != nil {
		t.Fatal(err)
	}
	if now != hc {
		t.Fatal("failed reharden still swapped the column")
	}
}

func TestResidueDemotionServesAllModes(t *testing.T) {
	db := adaptDB(t)
	ref, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"v", "w"} {
		if _, err := db.ResidueHardenColumn("t", col, 8); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range Modes {
		res, log, err := Run(db, m, ops.Scalar, sumPlan)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if log.Count() != 0 {
			t.Fatalf("%v: spurious detections on residue columns", m)
		}
		if !res.Equal(ref) {
			t.Fatalf("%v: result diverged on residue columns", m)
		}
	}
	// Corruption is caught by the scrub path and repaired from the mirror.
	hc, err := db.Hardened("t").Column("w")
	if err != nil {
		t.Fatal(err)
	}
	hc.Corrupt(7, 1<<5)
	repaired, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if repaired["t.w"] != 1 {
		t.Fatalf("scrub repaired %v, want t.w:1", repaired)
	}
	if bad, _ := hc.ResidueCheckAll(); len(bad) != 0 {
		t.Fatalf("scrub left stale residue positions %v", bad)
	}
	// Promotion back to AN restores operator-level detection.
	if _, err := db.RehardenColumn("t", "w", an.MustNew(233, 32)); err != nil {
		t.Fatal(err)
	}
	if cc := codingFor(t, db, "w"); cc.Scheme != "an" || cc.A != 233 {
		t.Fatalf("promotion left coding %+v", cc)
	}
}

func TestRehardenUnderConcurrentQueries(t *testing.T) {
	db := adaptDB(t)
	ref, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(m Mode) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, log, err := Run(db, m, ops.Scalar, sumPlan)
				if err != nil {
					errs <- err
					return
				}
				if log.Count() != 0 || !res.Equal(ref) {
					errs <- &reencodeErr{}
					return
				}
			}
		}([]Mode{LateOnetime, Continuous, EarlyOnetime, ContinuousReencoding}[r])
	}
	codes := []*an.Code{an.MustNew(233, 32), an.MustNew(1939, 32), an.MustNew(55831, 32)}
	for k := 0; k < 30; k++ {
		if _, err := db.RehardenColumn("t", "w", codes[k%len(codes)]); err != nil {
			t.Fatal(err)
		}
		if k%5 == 4 {
			if _, err := db.ResidueHardenColumn("t", "w", 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("concurrent query failed during re-hardening: %v", err)
	default:
	}
}

func TestAccessCountersTrackQueries(t *testing.T) {
	db := adaptDB(t)
	if _, _, err := Run(db, Continuous, ops.Scalar, sumPlan); err != nil {
		t.Fatal(err)
	}
	counts := db.AccessCounts()
	if counts["t.v"] == 0 || counts["t.w"] == 0 {
		t.Fatalf("access counters missing traffic: %v", counts)
	}
	hot := db.HotColumns()
	if len(hot) < 2 {
		t.Fatalf("hot columns: %v", hot)
	}
	window := db.ResetAccessCounts()
	if window["t.v"] != counts["t.v"] {
		t.Fatalf("reset snapshot diverged: %v vs %v", window, counts)
	}
	if after := db.AccessCounts(); len(after) != 0 {
		t.Fatalf("counters survived reset: %v", after)
	}
}
