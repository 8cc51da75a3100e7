package ssb

import (
	"fmt"

	"ahead/internal/exec"
)

// Ad-hoc requests: the serving layer accepts a small declarative
// scan/filter/group form next to the prepared flights. A spec compiles
// against a DB into an exec.QueryFunc, so one compiled request runs
// under every execution mode like the hand-written plans. Compilation
// validates the whole spec against the schema up front - the handler's
// guarantee that a malformed request is a 400, never a panic or a
// silently degraded run.

// AdHocLimits bound a spec: conjunctive predicates and group-by width
// are capped so a hostile request cannot explode the plan.
const (
	MaxAdHocPreds   = 8
	MaxAdHocGroupBy = 4
)

// AdHocPred is one inclusive range predicate; equality is lo == hi.
// An inverted range (lo > hi) selects nothing, matching ops.Filter.
type AdHocPred struct {
	Col string `json:"col"`
	Lo  uint64 `json:"lo"`
	Hi  uint64 `json:"hi"`
}

// AdHocSpec is a single-table scan/filter/group request.
//
//   - Agg "count": row count (per group, or one scalar).
//   - Agg "sum": Σ agg_col.
//   - Agg "sumproduct": Σ agg_col*agg_col2, scalar only.
//
// All referenced columns must belong to Table.
type AdHocSpec struct {
	Table   string      `json:"table"`
	Preds   []AdHocPred `json:"preds,omitempty"`
	GroupBy []string    `json:"group_by,omitempty"`
	Agg     string      `json:"agg"`
	AggCol  string      `json:"agg_col,omitempty"`
	AggCol2 string      `json:"agg_col2,omitempty"`
}

// CompileAdHoc validates the spec against the schema and returns the
// plan: a flight over the spec's table with no dimensions, its
// predicates (every row without any), group columns and aggregate. Every
// schema error surfaces here, before anything runs.
func CompileAdHoc(db *exec.DB, s AdHocSpec) (exec.QueryFunc, error) {
	tab := db.Plain(s.Table)
	if tab == nil {
		return nil, fmt.Errorf("ssb: unknown table %q", s.Table)
	}
	if len(s.Preds) > MaxAdHocPreds {
		return nil, fmt.Errorf("ssb: %d predicates (max %d)", len(s.Preds), MaxAdHocPreds)
	}
	if len(s.GroupBy) > MaxAdHocGroupBy {
		return nil, fmt.Errorf("ssb: %d group-by columns (max %d)", len(s.GroupBy), MaxAdHocGroupBy)
	}
	checkCol := func(name string) error {
		if name == "" {
			return fmt.Errorf("ssb: empty column name")
		}
		if _, err := tab.Column(name); err != nil {
			return fmt.Errorf("ssb: table %q has no column %q", s.Table, name)
		}
		return nil
	}
	for _, p := range s.Preds {
		if err := checkCol(p.Col); err != nil {
			return nil, err
		}
	}
	for _, g := range s.GroupBy {
		if err := checkCol(g); err != nil {
			return nil, err
		}
	}
	switch s.Agg {
	case "count":
		if s.AggCol != "" || s.AggCol2 != "" {
			return nil, fmt.Errorf("ssb: count takes no aggregate column")
		}
	case "sum":
		if err := checkCol(s.AggCol); err != nil {
			return nil, err
		}
		if s.AggCol2 != "" {
			return nil, fmt.Errorf("ssb: sum takes one aggregate column")
		}
	case "sumproduct":
		if err := checkCol(s.AggCol); err != nil {
			return nil, err
		}
		if err := checkCol(s.AggCol2); err != nil {
			return nil, err
		}
		if len(s.GroupBy) > 0 {
			return nil, fmt.Errorf("ssb: sumproduct is scalar only")
		}
	default:
		return nil, fmt.Errorf("ssb: unknown aggregate %q (count, sum, sumproduct)", s.Agg)
	}
	// The unfiltered scan needs some column to enumerate rows over.
	cols := tab.Columns()
	if len(cols) == 0 {
		return nil, fmt.Errorf("ssb: table %q has no columns", s.Table)
	}
	f := flight{table: s.Table, preds: everyRow(cols[0].Name()), groupBy: s.GroupBy}
	if len(s.Preds) > 0 {
		f.preds = make([]cond, len(s.Preds))
		for i, p := range s.Preds {
			f.preds[i] = num(p.Col, p.Lo, p.Hi)
		}
	}
	switch s.Agg {
	case "count":
		f.count = true
	case "sum":
		f.sum = s.AggCol
	default: // sumproduct, by validation
		f.sum, f.times = s.AggCol, s.AggCol2
	}
	return f.plan, nil
}
