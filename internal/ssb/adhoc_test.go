package ssb

import (
	"slices"
	"testing"

	"ahead/internal/exec"
	"ahead/internal/ops"
)

func TestAdHocValidation(t *testing.T) {
	suite, _, err := NewSuite(0.002, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []AdHocSpec{
		{Table: "nope", Agg: "count"},
		{Table: "lineorder", Agg: "median"},
		{Table: "lineorder", Agg: "sum"}, // missing agg_col
		{Table: "lineorder", Agg: "sum", AggCol: "no_such_col"},
		{Table: "lineorder", Agg: "count", Preds: []AdHocPred{{Col: "bogus"}}},
		{Table: "lineorder", Agg: "count", GroupBy: []string{"bogus"}},
		{Table: "lineorder", Agg: "sumproduct", AggCol: "lo_extendedprice", AggCol2: "lo_discount", GroupBy: []string{"lo_discount"}},
		{Table: "lineorder", Agg: "count", GroupBy: []string{"lo_discount", "lo_quantity", "lo_tax", "lo_shipmode", "lo_orderpriority"}},
		{Table: "lineorder", Agg: "count", Preds: make([]AdHocPred, MaxAdHocPreds+1)},
	}
	for i, s := range bad {
		if _, err := CompileAdHoc(suite.DB, s); err == nil {
			t.Errorf("spec %d compiled, want error", i)
		}
	}
}

// TestAdHocAgainstPreparedQ11: the ad-hoc form of Q1.1's fact-local part
// (filter lineorder, sum-product price*discount without the date
// semijoin) must agree across all modes, like the prepared flights do.
func TestAdHocModesAgree(t *testing.T) {
	suite, _, err := NewSuite(0.002, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := []AdHocSpec{
		{Table: "lineorder", Agg: "count",
			Preds: []AdHocPred{{Col: "lo_discount", Lo: 1, Hi: 3}}},
		{Table: "lineorder", Agg: "sumproduct", AggCol: "lo_extendedprice", AggCol2: "lo_discount",
			Preds: []AdHocPred{{Col: "lo_discount", Lo: 1, Hi: 3}, {Col: "lo_quantity", Lo: 0, Hi: 24}}},
		{Table: "lineorder", Agg: "sum", AggCol: "lo_revenue",
			Preds:   []AdHocPred{{Col: "lo_quantity", Lo: 10, Hi: 30}},
			GroupBy: []string{"lo_discount"}},
		{Table: "supplier", Agg: "count", GroupBy: []string{"s_region"}},
	}
	for si, spec := range specs {
		plan, err := CompileAdHoc(suite.DB, spec)
		if err != nil {
			t.Fatalf("spec %d: %v", si, err)
		}
		ref, _, err := exec.Run(suite.DB, exec.Unprotected, ops.Scalar, plan)
		if err != nil {
			t.Fatalf("spec %d unprotected: %v", si, err)
		}
		for _, m := range exec.Modes {
			res, log, err := exec.Run(suite.DB, m, ops.Scalar, plan)
			if err != nil {
				t.Fatalf("spec %d under %v: %v", si, m, err)
			}
			if log.Count() != 0 {
				t.Fatalf("spec %d under %v: spurious log entries", si, m)
			}
			if !res.Equal(ref) {
				t.Fatalf("spec %d under %v: result diverges from unprotected", si, m)
			}
		}
	}
}

// TestQueryTable pins what the flight table builds: Queries and
// QueryNames hold the same 13 names, in benchmark order.
func TestQueryTable(t *testing.T) {
	if len(QueryNames) != 13 || len(Queries) != len(QueryNames) {
		t.Fatalf("%d names, %d plans; want 13 of each", len(QueryNames), len(Queries))
	}
	for _, name := range QueryNames {
		if Queries[name] == nil {
			t.Errorf("query %q has no plan", name)
		}
	}
	if !slices.IsSorted(QueryNames) {
		t.Errorf("query names out of order: %v", QueryNames)
	}
}
