package exec

import (
	"path/filepath"
	"testing"

	"ahead/internal/ops"
	"ahead/internal/storage"
)

// narrowedW returns t.w of db, checking that it hardened narrowed: its
// values (at most 9900) occupy 14 bits, so it holds 30-bit code words in
// 32-bit slots instead of 47-bit ones in 64-bit slots.
func narrowedW(t *testing.T, db *DB) *storage.Column {
	t.Helper()
	w := db.Hardened("t").MustColumn("w")
	if w.Code().DataBits() != 14 || w.Width() != 4 {
		t.Fatalf("t.w hardened as %v in %d bytes, want |D|=14 in 4", w.Code(), w.Width())
	}
	return w
}

// sameAnswers runs sumPlan under every mode and compares it with ref,
// demanding clean error logs.
func sameAnswers(t *testing.T, db *DB, ref *ops.Result) {
	t.Helper()
	for _, m := range append(Modes, TMR) {
		res, log, err := Run(db, m, ops.Scalar, sumPlan)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if log.Count() != 0 || !res.Equal(ref) {
			t.Fatalf("%v: %d detections, equal=%v", m, log.Count(), res.Equal(ref))
		}
	}
}

func TestNarrowedDBRoundTripsThroughASnapshot(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	saved := narrowedW(t, db)
	dir := t.TempDir()
	if err := db.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	back, bad, err := storage.LoadTable(filepath.Join(dir, "t"))
	if err != nil || len(bad) != 0 {
		t.Fatalf("load: %v, %v", bad, err)
	}
	if err := db.UseHardened(back); err != nil {
		t.Fatal(err)
	}
	if w := narrowedW(t, db); w == saved || w.Code().A() != saved.Code().A() {
		t.Fatalf("reloaded t.w under %v, saved under %v", w.Code(), saved.Code())
	}
	sameAnswers(t, db, ref)
}

func TestNarrowedDBHealsFromAPeer(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Run(twin, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if narrowedW(t, db).Code().A() != narrowedW(t, twin).Code().A() {
		t.Fatal("identical data narrowed differently")
	}
	corruptW(t, db)
	words, err := twin.ChunkWords("t", "w", 0)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := db.HealChunk("t", "w", 0, words)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 2 {
		t.Fatalf("healed %d positions, want 2", changed)
	}
	if bad := narrowedW(t, db).BadPositions(); len(bad) != 0 {
		t.Fatalf("still corrupt at %v", bad)
	}
	sameAnswers(t, db, ref)
}

// TestNarrowedRepairSkipsAnOutOfDomainSource flips a high bit of the
// plain mirror, the chain's head, beside a flip in the narrowed column:
// the mirror's value lies beyond the column's domain, so the chain
// refuses it and repairs from the snapshot behind it - the column is
// neither widened nor written with the flipped value.
func TestNarrowedRepairSkipsAnOutOfDomainSource(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	snap := NewSnapshotRepairSource(dir)
	defer snap.Close()
	db.RegisterRepairSource(snap)
	db.Plain("t").MustColumn("w").Corrupt(15, 1<<20)
	w := narrowedW(t, db)
	w.Corrupt(15, 1<<3)
	repaired, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if repaired["t.w"] != 1 {
		t.Fatalf("scrub repaired %v", repaired)
	}
	if w = narrowedW(t, db); w.Value(15) != 1500 || len(w.BadPositions()) != 0 {
		t.Fatalf("row 15 reads %d after the repair", w.Value(15))
	}
	res, log, err := Run(db, Continuous, ops.Scalar, sumPlan)
	if err != nil || log.Count() != 0 || !res.Equal(ref) {
		t.Fatalf("Continuous after the repair: %v, %d detections, equal=%v", err, log.Count(), res.Equal(ref))
	}
}
