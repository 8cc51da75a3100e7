package ssb

import (
	"runtime"
	"sort"
	"testing"

	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

// bytesPerRun returns the median heap bytes one call of run allocates.
func bytesPerRun(runs int, run func()) uint64 {
	var ms runtime.MemStats
	xs := make([]uint64, runs)
	for i := range xs {
		runtime.ReadMemStats(&ms)
		start := ms.TotalAlloc
		run()
		runtime.ReadMemStats(&ms)
		xs[i] = ms.TotalAlloc - start
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[runs/2]
}

// TestEarlyArenaSteadyState pins the Δ's allocation contract on the two
// flights with the fewest and the most touched columns: once the arena
// is warm an Early run allocates no softened-column buffer - what it
// allocates beyond the Unprotected run of the same plan is a header and
// a release closure per column, far below the smallest fact column -
// and every borrow is back when the run returns.
func TestEarlyArenaSteadyState(t *testing.T) {
	data, err := Generate(0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := exec.NewDB(data.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	smallest := data.Lineorder.Rows() // lo_discount, lo_quantity, lo_tax: one byte per row
	for _, name := range []string{"Q1.1", "Q4.1"} {
		run := func(mode exec.Mode) func() {
			return func() {
				if _, log, err := exec.Run(db, mode, ops.Blocked, Queries[name]); err != nil || log.Count() != 0 {
					t.Fatalf("%s %v: %v, %d detections", name, mode, err, log.Count())
				}
			}
		}
		early, plain := run(exec.EarlyOnetime), run(exec.Unprotected)
		before := ops.LiveScratch()
		early() // warm the size classes
		if got := ops.LiveScratch(); got != before {
			t.Fatalf("%s: Early run left %d scratch buffers live", name, got-before)
		}
		extraAllocs := testing.AllocsPerRun(20, early) - testing.AllocsPerRun(20, plain)
		extraBytes := int64(bytesPerRun(21, early)) - int64(bytesPerRun(21, plain))
		t.Logf("%s: Early allocates %.0f objects / %d bytes more than Unprotected per run", name, extraAllocs, extraBytes)
		if raceEnabled {
			continue // the runs above still exercised borrow and release
		}
		// Q4.1 touches 15 columns; each costs a handful of small objects
		// (header, release closure, operator options, cache entry).
		if extraAllocs > 160 {
			t.Errorf("%s: Early costs %.0f allocations more than Unprotected per run, budget 160", name, extraAllocs)
		}
		if extraBytes > int64(smallest)/2 {
			t.Errorf("%s: Early allocates %d bytes more than Unprotected per run - a Δ buffer (>= %d bytes) is not coming from the arena",
				name, extraBytes, smallest)
		}
	}
}
