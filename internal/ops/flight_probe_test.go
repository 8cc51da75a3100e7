package ops_test

import (
	"sync"
	"testing"

	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/ssb"
	"ahead/internal/storage"
)

// TestEveryFlightProbesDatesDense runs all 13 SSB flights at SF 0.01 in
// every mode and pins that each date join - lo_orderdate against the
// d_datekey build table, yyyymmdd keys far above the bitset's 2^22-bit
// span cap - takes the offset key bitset, whether the FK column is plain
// or hardened from its frame of reference.
func TestEveryFlightProbesDatesDense(t *testing.T) {
	data, err := ssb.Generate(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := exec.NewDB(data.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	if base := db.Hardened("lineorder").MustColumn("lo_orderdate").Base(); base == 0 {
		t.Fatal("lo_orderdate is not hardened from a frame of reference")
	}
	var mu sync.Mutex
	var dense, sparse int
	ops.SetFKProbeHook(func(fk string, d bool) {
		if fk != "lo_orderdate" {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if d {
			dense++
		} else {
			sparse++
		}
	})
	defer ops.SetFKProbeHook(nil)
	for _, mode := range exec.Modes {
		for _, name := range ssb.QueryNames {
			dense, sparse = 0, 0
			if _, _, err := exec.Run(db, mode, ops.Blocked, ssb.Queries[name]); err != nil {
				t.Fatalf("%s %v: %v", name, mode, err)
			}
			if dense == 0 || sparse != 0 {
				t.Errorf("%s %v: %d dense and %d table probes of lo_orderdate", name, mode, dense, sparse)
			}
		}
	}
}
