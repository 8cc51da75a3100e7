package ssb

import (
	"sort"
	"testing"

	"ahead/internal/exec"
	"ahead/internal/faults"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

// TestEndToEndInjectionDetectionRepair closes the loop the paper's
// Section 9 sketches: inject flips into hardened base data, detect them
// on the fly during query processing, repair from redundancy, and verify
// the workload returns to the fault-free answer.
func TestEndToEndInjectionDetectionRepair(t *testing.T) {
	d, err := Generate(0.005, 11)
	if err != nil {
		t.Fatal(err)
	}
	db, err := exec.NewDB(d.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := exec.Run(db, exec.Continuous, ops.Blocked, Queries["Q2.1"])
	if err != nil {
		t.Fatal(err)
	}

	// Inject weight-2 flips into the part FK - within every published
	// guarantee, and probed in full by Q2.1.
	fk := db.Hardened("lineorder").MustColumn("lo_partkey")
	inj := faults.NewInjector(5)
	injected, err := inj.FlipRandom(fk, 25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(injected)

	_, log, err := exec.Run(db, exec.Continuous, ops.Blocked, Queries["Q2.1"])
	if err != nil {
		t.Fatal(err)
	}
	got, err := log.Positions("lo_partkey")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(injected) {
		t.Fatalf("continuous run found %d of %d injected flips", len(got), len(injected))
	}
	for i, pos := range injected {
		if got[i] != uint64(pos) {
			t.Fatalf("position %d: found %d, injected %d", i, got[i], pos)
		}
	}

	// Early one-time detection finds the same set in its Δ pass.
	_, logE, err := exec.Run(db, exec.EarlyOnetime, ops.Blocked, Queries["Q2.1"])
	if err != nil {
		t.Fatal(err)
	}
	gotE, err := logE.Positions("lo_partkey")
	if err != nil {
		t.Fatal(err)
	}
	if len(gotE) != len(injected) {
		t.Fatalf("early Δ found %d of %d", len(gotE), len(injected))
	}

	// Repair from the plain replica and verify the fault-free answer.
	n, err := db.RepairHardened("lineorder", "lo_partkey", log)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(injected) {
		t.Fatalf("repaired %d of %d", n, len(injected))
	}
	res, logAfter, err := exec.Run(db, exec.Continuous, ops.Blocked, Queries["Q2.1"])
	if err != nil {
		t.Fatal(err)
	}
	if logAfter.Count() != 0 {
		t.Fatalf("%d residual detections after repair", logAfter.Count())
	}
	if !res.Equal(ref) {
		t.Fatal("repaired run differs from the fault-free answer")
	}
}

// TestInjectionIntoEveryHardenedLineorderColumn runs the full Δ over every
// hardened lineorder column after injection: every guaranteed-weight flip
// must be found no matter the column's width class and code.
func TestInjectionIntoEveryHardenedLineorderColumn(t *testing.T) {
	d, err := Generate(0.002, 3)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := d.Lineorder.Harden(storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(9)
	for _, col := range hard.Columns() {
		code := col.Code()
		if code == nil {
			continue
		}
		// Stay within each code's published guarantee; the 48-bit
		// heap-reference code has none, so use single flips there
		// (detected by any AN code: ±2^i is never a multiple of A).
		weight := 2
		if code.DataBits() > 32 {
			weight = 1
		}
		positions, err := inj.FlipRandom(col, 10, weight)
		if err != nil {
			t.Fatalf("%s: %v", col.Name(), err)
		}
		errs, err := col.CheckAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(errs) != len(positions) {
			t.Fatalf("%s (A=%d,|D|=%d): detected %d of %d weight-%d flips",
				col.Name(), code.A(), code.DataBits(), len(errs), len(positions), weight)
		}
		// Restore for the next column's independence.
		for _, p := range positions {
			plain := d.Lineorder.MustColumn(col.Name())
			col.Set(int(p), plain.Get(p))
		}
	}
}
