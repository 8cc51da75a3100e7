package ssb

import (
	"testing"

	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

// selGroupTail is the materializing grouped tail over a fact selection
// computed before it: semijoin against the date dimension, gather d_year
// and the measures at the surviving rows, group and sum (measureB empty:
// the plain sum, otherwise measure-measureB). No flight plans this shape
// - starGroupBy always starts from the whole fact table and may fuse -
// so it pins the materializing operators themselves: once a detected
// corruption makes a gather drop an entry, keys, group ids and measures
// must stay aligned with sel, a corrupted position contributing zero and
// a log record instead of skewing its neighbours' groups.
func selGroupTail(q *exec.Query, sel *ops.Sel, measure, measureB string) (*ops.Result, error) {
	dateHT, err := buildDim(q, "date", "d_datekey", []pred{{col: "d_year", lo: 1993, hi: 1994}})
	if err != nil {
		return nil, err
	}
	fk, err := q.Col("lineorder", "lo_orderdate")
	if err != nil {
		return nil, err
	}
	if sel, err = ops.SemiJoin(fk, dateHT, sel, q.Opts()); err != nil {
		return nil, err
	}
	year, err := gatherDim(q, sel, "lineorder", "lo_orderdate", dateHT, "date", "d_year")
	if err != nil {
		return nil, err
	}
	gids, groups, err := ops.GroupBy([]*ops.Vec{q.PreAggregate(year)}, q.Opts())
	if err != nil {
		return nil, err
	}
	meas, err := gatherFact(q, measure, sel)
	if err != nil {
		return nil, err
	}
	var sums *ops.Vec
	if measureB == "" {
		sums, err = ops.SumGrouped(q.PreAggregate(meas), gids, len(groups), q.Opts())
	} else {
		measB, errB := gatherFact(q, measureB, sel)
		if errB != nil {
			return nil, errB
		}
		sums, err = ops.SumDiffGrouped(q.PreAggregate(meas), q.PreAggregate(measB), gids, len(groups), q.Opts())
	}
	if err != nil {
		return nil, err
	}
	return q.Finish(groups, sums)
}

// selThenGroupBy filters the fact table on lo_discount, then runs the
// grouped revenue tail over the selection.
func selThenGroupBy(q *exec.Query) (*ops.Result, error) {
	sel, err := filterTable(q, "lineorder", []pred{{col: "lo_discount", lo: 1, hi: 3}})
	if err != nil {
		return nil, err
	}
	return selGroupTail(q, sel, "lo_revenue", "")
}

// selThenGroupByProfit is the same shape over the Q4.x profit tail.
func selThenGroupByProfit(q *exec.Query) (*ops.Result, error) {
	sel, err := filterTable(q, "lineorder", []pred{{col: "lo_quantity", lo: 0, hi: 24}})
	if err != nil {
		return nil, err
	}
	return selGroupTail(q, sel, "lo_revenue", "lo_supplycost")
}

// TestSelectionThenGroupBy runs both selection-then-group-by shapes
// under every hardened mode x {serial, pooled} and requires the
// unprotected reference result exactly, with nothing logged on clean
// data.
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

	plans := map[string]exec.QueryFunc{
		"sel+groupby": selThenGroupBy,
		"sel+profit":  selThenGroupByProfit,
	}
	for name, plan := range plans {
		ref, _, err := exec.Run(db, exec.Unprotected, ops.Blocked, plan)
		if err != nil {
			t.Fatalf("%s unprotected: %v", name, err)
		}
		if ref.Rows() == 0 {
			t.Fatalf("%s: empty reference result; test is vacuous", name)
		}
		for _, mode := range diffModes {
			for _, pooled := range []bool{false, true} {
				var opts []exec.RunOption
				if pooled {
					opts = append(opts, exec.WithPool(pool))
				}
				got, log, err := exec.Run(db, mode, ops.Blocked, plan, opts...)
				if err != nil {
					t.Fatalf("%s %v pooled=%v: %v", name, mode, pooled, err)
				}
				if !ref.Equal(got) {
					t.Fatalf("%s %v pooled=%v diverges: %s", name, mode, pooled, firstDivergence(ref, got))
				}
				if log.Count() != 0 {
					t.Fatalf("%s %v pooled=%v: %d errors logged on clean data", name, mode, pooled, log.Count())
				}
			}
		}
	}
}

// TestSelectionThenGroupByFaults corrupts the measure columns and
// requires the selection-then-group-by tail to detect and soften -
// never to fail - under Continuous.
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
	plans := map[string]exec.QueryFunc{
		"sel+groupby": selThenGroupBy,
		"sel+profit":  selThenGroupByProfit,
	}
	for name, plan := range plans {
		_, log, err := exec.Run(db, exec.Continuous, ops.Blocked, plan)
		if err != nil {
			t.Fatalf("%s: corrupted run must soften, got error: %v", name, err)
		}
		if log.Count() == 0 {
			t.Fatalf("%s: corruption went undetected", name)
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
