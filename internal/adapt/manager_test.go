package adapt

import (
	"testing"

	"ahead/internal/an"
	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

// weakestChooser hardens every width class at the bottom ladder rung -
// the cheap starting point the adaptive loop escalates from.
func weakestChooser(bits uint) (*an.Code, error) {
	return an.ForMinBFW(bits, 1)
}

func managerDB(t *testing.T) *exec.DB {
	t.Helper()
	tb := storage.NewTable("m")
	v, err := storage.NewColumn("v", storage.Int)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		v.Append(i % 500)
	}
	if err := tb.AddColumn(v); err != nil {
		t.Fatal(err)
	}
	db, err := exec.NewDB([]*storage.Table{tb}, weakestChooser)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func countPlan(q *exec.Query) (*ops.Result, error) {
	c, err := q.Col("m", "v")
	if err != nil {
		return nil, err
	}
	sel, err := ops.Filter(c, 100, 400, q.Opts())
	if err != nil {
		return nil, err
	}
	vec, err := ops.Gather(c, sel, q.Opts())
	if err != nil {
		return nil, err
	}
	sum, err := ops.SumTotal(q.PreAggregate(vec), q.Opts())
	if err != nil {
		return nil, err
	}
	return q.FinishScalar(sum)
}

// TestManagerClosedLoop drives the full loop against a live DB: inject
// faults, run detecting queries, feed the detections back, tick - the
// column must climb to a stronger code, the corruption must be repaired,
// and every query must keep succeeding with correct results.
func TestManagerClosedLoop(t *testing.T) {
	db := managerDB(t)
	ref, _, err := exec.Run(db, exec.Unprotected, ops.Scalar, countPlan)
	if err != nil {
		t.Fatal(err)
	}
	pol := DefaultPolicy()
	pol.TargetRate = 1e-4
	pol.CoolTicks = 2
	m := NewManager(db, pol)

	startA := db.ColumnCodings()[0].A
	if c := an.MustNew(startA, 32); func() bool { _, ok := an.NextLarger(c); return ok }() == false {
		t.Fatalf("fixture starts at the strongest rung A=%d; nothing to escalate to", startA)
	}

	var rehardens int
	for tick := 0; tick < 8; tick++ {
		// Fault-rate step: inject a burst of flips each window.
		hc, err := db.Hardened("m").Column("v")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			hc.Corrupt(i*37, 1<<7)
		}
		res, log, err := exec.Run(db, exec.Continuous, ops.Scalar, countPlan)
		if err != nil {
			t.Fatalf("tick %d: query failed: %v", tick, err)
		}
		_ = res
		for _, col := range log.Columns() {
			pos, err := log.Positions(col)
			if err != nil {
				t.Fatal(err)
			}
			m.NoteDetections(col, len(pos))
		}
		ds := m.TickOnce()
		rehardens += len(ds)
		// After the tick the column must be verified clean (scrub +
		// re-encode both repair), and queries must agree with the
		// reference again.
		res2, log2, err := exec.Run(db, exec.Continuous, ops.Scalar, countPlan)
		if err != nil {
			t.Fatalf("tick %d: post-tick query failed: %v", tick, err)
		}
		if log2.Count() != 0 {
			t.Fatalf("tick %d: corruption survived the tick", tick)
		}
		if !res2.Equal(ref) {
			t.Fatalf("tick %d: post-tick result diverged", tick)
		}
	}
	if rehardens == 0 {
		t.Fatal("sustained fault pressure never triggered a re-harden")
	}
	st := m.Status()
	if st.Rehardens == 0 || st.BytesReencoded == 0 || st.Ticks != 8 {
		t.Fatalf("status counters: %+v", st)
	}
	cc := db.ColumnCodings()[0]
	if cc.A <= startA {
		t.Fatalf("column never escalated: started A=%d, now A=%d", startA, cc.A)
	}
	if !st.BoundHeld {
		t.Fatalf("bound not held after escalation: %+v", st.Columns)
	}
}

// TestManagerEscalatesAndHealsFromSnapshot: a replica without the plain
// entry in its repair chain heals only from a boot snapshot. Under fault
// pressure the manager escalates the column to a stronger code, so the
// snapshot now holds words of an older code; a fresh flip must still
// heal from it - verified under the snapshot's own code, re-hardened
// under the column's current one.
func TestManagerEscalatesAndHealsFromSnapshot(t *testing.T) {
	db := managerDB(t)
	ref, _, err := exec.Run(db, exec.Unprotected, ops.Scalar, countPlan)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	src := exec.NewSnapshotRepairSource(dir)
	defer src.Close()
	db.RegisterRepairSource(src)
	db.DropPlainRepair()

	pol := DefaultPolicy()
	pol.TargetRate = 1e-4
	m := NewManager(db, pol)
	startA := db.ColumnCodings()[0].A
	for tick := 0; tick < 8 && db.ColumnCodings()[0].A == startA; tick++ {
		hc, err := db.Hardened("m").Column("v")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			hc.Corrupt(i*37, 1<<7)
		}
		_, log, err := exec.Run(db, exec.Continuous, ops.Scalar, countPlan)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range log.Columns() {
			pos, err := log.Positions(col)
			if err != nil {
				t.Fatal(err)
			}
			m.NoteDetections(col, len(pos))
		}
		m.TickOnce()
	}
	if st := m.Status(); db.ColumnCodings()[0].A == startA || st.FailedRehardens != 0 || st.LastError != "" {
		t.Fatalf("column did not escalate cleanly from A=%d: %+v", startA, st)
	}

	hc, err := db.Hardened("m").Column("v")
	if err != nil {
		t.Fatal(err)
	}
	hc.Corrupt(150, 1<<3) // v=150 lies inside countPlan's filter
	res, rep, err := exec.RunWithRecovery(db, exec.Continuous, ops.Scalar, countPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(ref) || rep.RepairedCount() != 1 || rep.Attempts != 2 {
		t.Fatalf("snapshot heal after escalation: equal=%v report %v", res.Equal(ref), rep)
	}
	if bad := hc.BadPositions(); len(bad) != 0 {
		t.Fatalf("column not clean after the heal: %v", bad)
	}
}

func TestManagerPolicyRoundTrip(t *testing.T) {
	m := NewManager(managerDB(t), DefaultPolicy())
	p := m.Policy()
	p.TargetRate = 5e-6
	p.AllowResidue = true
	p.ColdRows = 42
	m.SetPolicy(p)
	got := m.Policy()
	if got.TargetRate != 5e-6 || !got.AllowResidue || got.ColdRows != 42 {
		t.Fatalf("policy round trip: %+v", got)
	}
	st := m.Status()
	if st.Target != 5e-6 {
		t.Fatalf("status target %v", st.Target)
	}
	if len(st.Columns) != 1 || st.Columns[0].Scheme != "an" {
		t.Fatalf("status columns: %+v", st.Columns)
	}
}

func TestManagerDropsUnknownDetections(t *testing.T) {
	m := NewManager(managerDB(t), DefaultPolicy())
	m.NoteDetections("vec:intermediate", 10)
	m.NoteDetections("no-such-column", 3)
	m.NoteDetections("v", 0)
	if ds := m.TickOnce(); len(ds) != 0 {
		t.Fatalf("phantom detections produced decisions: %+v", ds)
	}
}
