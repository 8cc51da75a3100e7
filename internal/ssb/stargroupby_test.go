package ssb

import (
	"testing"

	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

// selGroupFlights filter lineorder before the joins and group after
// them: Σ lo_revenue and the Q4.x profit Σ lo_revenue − lo_supplycost
// by d_year over the rows that pass a lineorder predicate and the 1993
// and 1994 dates. No SSB flight has this shape - the fused cascade's
// predicates in front of a grouped sink - so it pins both plan shapes:
// once a detected corruption makes a materializing gather drop an
// entry, keys, group ids and measures must stay aligned with the
// selection, a corrupted position contributing zero and a log record
// instead of skewing its neighbours' groups.
var selGroupFlights = []flight{
	{name: "sel+groupby", dims: []dim{date("d_year", num("d_year", 1993, 1994))},
		preds: []cond{num("lo_discount", 1, 3)}, sum: "lo_revenue"},
	{name: "sel+profit", dims: []dim{date("d_year", num("d_year", 1993, 1994))},
		preds: []cond{num("lo_quantity", 0, 24)}, sum: "lo_revenue", minus: "lo_supplycost"},
}

// TestSelectionThenGroupBy runs both selection-then-group-by flights
// under every hardened mode x {serial, pooled} x {fused, materializing}
// and requires the unprotected reference result exactly, with nothing
// logged on clean data.
func TestSelectionThenGroupBy(t *testing.T) {
	data, err := Generate(0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := exec.NewDB(data.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPool(4)
	defer pool.Close()

	for _, f := range selGroupFlights {
		ref, _, err := exec.Run(db, exec.Unprotected, ops.Blocked, f.plan)
		if err != nil {
			t.Fatalf("%s unprotected: %v", f.name, err)
		}
		if ref.Rows() == 0 {
			t.Fatalf("%s: empty reference result; test is vacuous", f.name)
		}
		for _, mode := range diffModes {
			for _, fused := range []bool{true, false} {
				for _, pooled := range []bool{false, true} {
					opts := []exec.RunOption{exec.WithFusion(fused)}
					if pooled {
						opts = append(opts, exec.WithPool(pool))
					}
					got, log, err := exec.Run(db, mode, ops.Blocked, f.plan, opts...)
					if err != nil {
						t.Fatalf("%s %v fused=%v pooled=%v: %v", f.name, mode, fused, pooled, err)
					}
					if !ref.Equal(got) {
						t.Fatalf("%s %v fused=%v pooled=%v diverges: %s", f.name, mode, fused, pooled, firstDivergence(ref, got))
					}
					if log.Count() != 0 {
						t.Fatalf("%s %v fused=%v pooled=%v: %d errors logged on clean data", f.name, mode, fused, pooled, log.Count())
					}
				}
			}
		}
	}
}

// TestSelectionThenGroupByFaults corrupts the measure columns and
// requires both selection-then-group-by shapes to detect and soften -
// never to fail - under Continuous, and to agree on the result.
func TestSelectionThenGroupByFaults(t *testing.T) {
	data, err := Generate(0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := exec.NewDB(data.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"lo_revenue", "lo_supplycost"} {
		c := db.Hardened("lineorder").MustColumn(col)
		for i := 10; i < c.Len(); i += 211 {
			c.Corrupt(i, 1<<9)
		}
	}
	for _, f := range selGroupFlights {
		var results [2]*ops.Result
		for i, fused := range []bool{true, false} {
			res, log, err := exec.Run(db, exec.Continuous, ops.Blocked, f.plan, exec.WithFusion(fused))
			if err != nil {
				t.Fatalf("%s fused=%v: corrupted run must soften, got error: %v", f.name, fused, err)
			}
			if log.Count() == 0 {
				t.Fatalf("%s fused=%v: corruption went undetected", f.name, fused)
			}
			results[i] = res
		}
		if !results[0].Equal(results[1]) {
			t.Fatalf("%s: fused and materializing results diverge under faults: %s", f.name, firstDivergence(results[1], results[0]))
		}
	}
}

// TestLateAttributeFlipFallsBack is the regression test of the Late
// attribute-flip failure: one flipped bit in a dimension attribute code
// word that a surviving fact row reaches decodes - Late keeps what it
// decodes - to a value the fused cascade's 16-bit key staging cannot
// hold. The cascade used to fail the whole query with no detection
// record; now it hands the tail to the materializing operators, so the
// fused default answers, and logs, exactly what exec.WithFusion(false)
// does.
func TestLateAttributeFlipFallsBack(t *testing.T) {
	data, err := Generate(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := exec.NewDB(data.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPoolMorsel(4, 4096) // fifteen morsels at SF 0.01
	defer pool.Close()
	year := db.Hardened("date").MustColumn("d_year")
	flip := func(bit uint) {
		for i := 0; i < year.Len(); i += 7 {
			year.Corrupt(i, 1<<bit)
		}
	}
	for _, bit := range []uint{0, 5, 12, 20} {
		flip(bit)
		for _, name := range []string{"Q2.1", "Q3.1", "Q4.1"} {
			for _, pooled := range []bool{false, true} {
				var opts []exec.RunOption
				if pooled {
					opts = append(opts, exec.WithPool(pool))
				}
				want, wantLog, err := exec.Run(db, exec.LateOnetime, ops.Blocked, Queries[name], append(opts, exec.WithFusion(false))...)
				if err != nil {
					t.Fatalf("%s bit %d pooled=%v materializing: %v", name, bit, pooled, err)
				}
				got, gotLog, err := exec.Run(db, exec.LateOnetime, ops.Blocked, Queries[name], opts...)
				if err != nil {
					t.Fatalf("%s bit %d pooled=%v fused: %v", name, bit, pooled, err)
				}
				// Q3.1 filters the date dimension on d_year itself: a high
				// flip leaves the raw range and never reaches the build side.
				if wantLog.Count() == 0 && name != "Q3.1" {
					t.Fatalf("%s bit %d: no surviving row reached a flipped d_year; test is vacuous", name, bit)
				}
				if !want.Equal(got) {
					t.Fatalf("%s bit %d pooled=%v: fused diverges from materializing: %s", name, bit, pooled, firstDivergence(want, got))
				}
				if !gotLog.Equal(wantLog) {
					t.Fatalf("%s bit %d pooled=%v: fused logged %d entries, materializing %d, or in another order",
						name, bit, pooled, gotLog.Count(), wantLog.Count())
				}
			}
		}
		flip(bit) // XOR again: the column is clean for the next bit
	}
}
