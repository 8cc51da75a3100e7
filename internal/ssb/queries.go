package ssb

import (
	"errors"

	"ahead/internal/exec"
	"ahead/internal/hashmap"
	"ahead/internal/ops"
)

// QueryNames lists the 13 SSB queries in benchmark order.
var QueryNames = []string{
	"Q1.1", "Q1.2", "Q1.3",
	"Q2.1", "Q2.2", "Q2.3",
	"Q3.1", "Q3.2", "Q3.3", "Q3.4",
	"Q4.1", "Q4.2", "Q4.3",
}

// Queries maps query names to their manually written plans (Section 6.1),
// each usable under every execution mode.
var Queries = map[string]exec.QueryFunc{
	"Q1.1": Q11, "Q1.2": Q12, "Q1.3": Q13,
	"Q2.1": Q21, "Q2.2": Q22, "Q2.3": Q23,
	"Q3.1": Q31, "Q3.2": Q32, "Q3.3": Q33, "Q3.4": Q34,
	"Q4.1": Q41, "Q4.2": Q42, "Q4.3": Q43,
}

// pred is an inclusive range predicate on one column - the normal form
// every SSB comparison reduces to (equality is lo == hi).
type pred struct {
	col    string
	lo, hi uint64
}

// eqStr translates an equality predicate on a dictionary-encoded string
// column into a code-range predicate. A value missing from the dictionary
// yields an empty range.
func eqStr(q *exec.Query, table, col, val string) (pred, error) {
	d, err := q.Dict(table, col)
	if err != nil {
		return pred{}, err
	}
	code, ok := d.Code(val)
	if !ok {
		return pred{col: col, lo: 1, hi: 0}, nil // empty
	}
	return pred{col: col, lo: uint64(code), hi: uint64(code)}, nil
}

// rangeStr translates an inclusive string range into a code range.
func rangeStr(q *exec.Query, table, col, lo, hi string) (pred, error) {
	d, err := q.Dict(table, col)
	if err != nil {
		return pred{}, err
	}
	first, last, ok := d.CodeRange(lo, hi)
	if !ok {
		return pred{col: col, lo: 1, hi: 0}, nil
	}
	return pred{col: col, lo: uint64(first), hi: uint64(last)}, nil
}

// filterTable applies conjunctive range predicates to a table and returns
// the qualifying selection.
func filterTable(q *exec.Query, table string, preds []pred) (*ops.Sel, error) {
	o := q.Opts()
	var sel *ops.Sel
	for i, p := range preds {
		col, err := q.Col(table, p.col)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			sel, err = ops.Filter(col, p.lo, p.hi, o)
		} else {
			sel, err = ops.FilterSel(col, p.lo, p.hi, sel, o)
		}
		if err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// filterIn applies a disjunction of equality predicates (the IN lists of
// Q3.3/Q3.4) on one column, unioning the per-value selections.
func filterIn(q *exec.Query, table, col string, vals []string) (*ops.Sel, error) {
	d, err := q.Dict(table, col)
	if err != nil {
		return nil, err
	}
	c, err := q.Col(table, col)
	if err != nil {
		return nil, err
	}
	o := q.Opts()
	var merged *ops.Sel
	for _, v := range vals {
		code, ok := d.Code(v)
		if !ok {
			continue
		}
		s, err := ops.Filter(c, uint64(code), uint64(code), o)
		if err != nil {
			return nil, err
		}
		merged = unionSels(merged, s)
	}
	if merged == nil {
		merged = &ops.Sel{Hardened: o.HardenIDs}
	}
	return merged, nil
}

// unionSels merges two selections (disjoint by construction) preserving
// position order. Hardened positions merge on their raw form: PosCode
// encoding is monotonic, so raw order equals plain order.
func unionSels(a, b *ops.Sel) *ops.Sel {
	if a == nil {
		return b
	}
	out := &ops.Sel{Pos: make([]uint64, 0, a.Len()+b.Len()), Hardened: a.Hardened}
	i, j := 0, 0
	for i < a.Len() && j < b.Len() {
		if a.Pos[i] <= b.Pos[j] {
			out.Pos = append(out.Pos, a.Pos[i])
			i++
		} else {
			out.Pos = append(out.Pos, b.Pos[j])
			j++
		}
	}
	out.Pos = append(out.Pos, a.Pos[i:]...)
	out.Pos = append(out.Pos, b.Pos[j:]...)
	return out
}

// buildDim filters a dimension table and builds the join hash table over
// its key column.
func buildDim(q *exec.Query, table, key string, preds []pred) (*hashmap.U64, error) {
	sel, err := filterTable(q, table, preds)
	if err != nil {
		return nil, err
	}
	keyCol, err := q.Col(table, key)
	if err != nil {
		return nil, err
	}
	return ops.HashBuild(keyCol, sel, q.Opts())
}

// buildDimSel builds the hash table over an externally computed selection.
func buildDimSel(q *exec.Query, table, key string, sel *ops.Sel) (*hashmap.U64, error) {
	keyCol, err := q.Col(table, key)
	if err != nil {
		return nil, err
	}
	return ops.HashBuild(keyCol, sel, q.Opts())
}

// allRows selects every row of a table (the unfiltered date dimension of
// the group-by queries).
func allRows(q *exec.Query, table, anyCol string) (*ops.Sel, error) {
	col, err := q.Col(table, anyCol)
	if err != nil {
		return nil, err
	}
	return ops.Filter(col, 0, ^uint64(0), q.Opts())
}

// gatherDim fetches a dimension attribute aligned with the fact selection:
// it re-probes the FK column (all rows of sel match by construction) and
// gathers the attribute at the matched build positions.
func gatherDim(q *exec.Query, sel *ops.Sel, fkTable, fkCol string, ht *hashmap.U64, dimTable, attr string) (*ops.Vec, error) {
	fk, err := q.Col(fkTable, fkCol)
	if err != nil {
		return nil, err
	}
	_, buildPos, err := ops.HashProbe(fk, ht, sel, q.Opts())
	if err != nil {
		return nil, err
	}
	col, err := q.Col(dimTable, attr)
	if err != nil {
		return nil, err
	}
	vec, err := ops.GatherAt(col, buildPos, q.Opts())
	if err != nil {
		return nil, err
	}
	return q.Reencode(vec)
}

// gatherFact fetches a lineorder column at the final selection.
func gatherFact(q *exec.Query, col string, sel *ops.Sel) (*ops.Vec, error) {
	c, err := q.Col("lineorder", col)
	if err != nil {
		return nil, err
	}
	vec, err := ops.Gather(c, sel, q.Opts())
	if err != nil {
		return nil, err
	}
	return q.Reencode(vec)
}

// q1Flight is the shared shape of the three Q1.x flights: lineorder local
// filters, a date semijoin, and the discounted-revenue scalar aggregate.
// Every mode takes the fused single-pass tail - ContinuousReencoding
// re-hardening its staging vectors (ops.Opts.Reencode); q1Tail is the
// operator-at-a-time pipeline (exec.WithFusion(false) runs it under
// every mode - the baseline fusion is measured against).
func q1Flight(q *exec.Query, datePreds []pred, discLo, discHi, qtyLo, qtyHi uint64) (*ops.Result, error) {
	dateHT, err := buildDim(q, "date", "d_datekey", datePreds)
	if err != nil {
		return nil, err
	}
	if q.FuseOperators() {
		disc, err := q.Col("lineorder", "lo_discount")
		if err != nil {
			return nil, err
		}
		qty, err := q.Col("lineorder", "lo_quantity")
		if err != nil {
			return nil, err
		}
		od, err := q.Col("lineorder", "lo_orderdate")
		if err != nil {
			return nil, err
		}
		price, err := q.Col("lineorder", "lo_extendedprice")
		if err != nil {
			return nil, err
		}
		rev, err := ops.FusedFilterSemiSumProduct([]ops.RangePred{
			{Col: disc, Lo: discLo, Hi: discHi},
			{Col: qty, Lo: qtyLo, Hi: qtyHi},
		}, od, dateHT, price, disc, q.Opts())
		if err != nil {
			return nil, err
		}
		return q.FinishScalar(rev)
	}
	return q1Tail(q, dateHT, discLo, discHi, qtyLo, qtyHi)
}

// q1Tail is the materializing filter-semijoin-aggregate tail of the
// unfused path; under ContinuousReencoding it re-encodes each gathered
// vector (exec.Query.Reencode).
func q1Tail(q *exec.Query, dateHT *hashmap.U64, discLo, discHi, qtyLo, qtyHi uint64) (*ops.Result, error) {
	sel, err := filterTable(q, "lineorder", []pred{
		{col: "lo_discount", lo: discLo, hi: discHi},
		{col: "lo_quantity", lo: qtyLo, hi: qtyHi},
	})
	if err != nil {
		return nil, err
	}
	od, err := q.Col("lineorder", "lo_orderdate")
	if err != nil {
		return nil, err
	}
	sel, err = ops.SemiJoin(od, dateHT, sel, q.Opts())
	if err != nil {
		return nil, err
	}
	price, err := gatherFact(q, "lo_extendedprice", sel)
	if err != nil {
		return nil, err
	}
	disc, err := gatherFact(q, "lo_discount", sel)
	if err != nil {
		return nil, err
	}
	price = q.PreAggregate(price)
	disc = q.PreAggregate(disc)
	rev, err := ops.SumProduct(price, disc, q.Opts())
	if err != nil {
		return nil, err
	}
	return q.FinishScalar(rev)
}

// Q11 is SSB Q1.1: revenue for 1993 orders with discount 1-3 and quantity
// below 25.
func Q11(q *exec.Query) (*ops.Result, error) {
	return q1Flight(q, []pred{{col: "d_year", lo: 1993, hi: 1993}}, 1, 3, 0, 24)
}

// Q12 is SSB Q1.2: January 1994, discount 4-6, quantity 26-35.
func Q12(q *exec.Query) (*ops.Result, error) {
	return q1Flight(q, []pred{{col: "d_yearmonthnum", lo: 199401, hi: 199401}}, 4, 6, 26, 35)
}

// Q13 is SSB Q1.3: week 6 of 1994, discount 5-7, quantity 26-35.
func Q13(q *exec.Query) (*ops.Result, error) {
	return q1Flight(q, []pred{
		{col: "d_weeknuminyear", lo: 6, hi: 6},
		{col: "d_year", lo: 1994, hi: 1994},
	}, 5, 7, 26, 35)
}

// groupSpec names one group attribute gathered through a dimension join.
type groupSpec struct {
	fkCol    string
	ht       *hashmap.U64
	dimTable string
	attr     string
}

// starGroupByFused runs the whole grouped tail as one fused pass over
// the fact table (ops.FusedProbeGroupSum / FusedProbeGroupSumDiff): the
// join cascade probes, the group ids assign and the measure accumulates
// block-at-a-time, with no materialized selection, match or value vector
// between the stages. measureB empty selects the plain sum; otherwise
// the Q4.x profit difference measure-measureB.
func starGroupByFused(q *exec.Query, joins []groupSpec, measure, measureB string) (*ops.Result, error) {
	fjs := make([]ops.FusedJoin, len(joins))
	for i, j := range joins {
		fk, err := q.Col("lineorder", j.fkCol)
		if err != nil {
			return nil, err
		}
		fjs[i] = ops.FusedJoin{FK: fk, HT: j.ht}
		if j.attr != "" {
			attr, err := q.Col(j.dimTable, j.attr)
			if err != nil {
				return nil, err
			}
			fjs[i].Attr = attr
		}
	}
	ma, err := q.Col("lineorder", measure)
	if err != nil {
		return nil, err
	}
	var groups [][]uint64
	var sums *ops.Vec
	if measureB == "" {
		groups, sums, err = ops.FusedProbeGroupSum(nil, fjs, ma, q.Opts())
	} else {
		mb, errB := q.Col("lineorder", measureB)
		if errB != nil {
			return nil, errB
		}
		groups, sums, err = ops.FusedProbeGroupSumDiff(nil, fjs, ma, mb, q.Opts())
	}
	if err != nil {
		return nil, err
	}
	return q.Finish(groups, sums)
}

// starGroupBy runs the shared tail of the grouped flights: semijoin the
// whole fact table against every dimension, gather the group attributes
// and the measure, group and sum - measureB empty selects the plain sum,
// otherwise the Q4.x profit difference measure-measureB. The whole tail
// collapses into the fused probe cascade under every mode - unless
// exec.WithFusion(false) forces the operators, or a group-key component
// turns out wider than the cascade stages it (ops.ErrFusedKeyDomain: a
// wide attribute, or under Late a corrupted one), in which case the
// cascade has logged nothing and the operators below, which size keys
// by their decoded domain, run the tail instead.
func starGroupBy(q *exec.Query, joins []groupSpec, measure, measureB string) (*ops.Result, error) {
	if q.FuseOperators() {
		res, err := starGroupByFused(q, joins, measure, measureB)
		if !errors.Is(err, ops.ErrFusedKeyDomain) {
			return res, err
		}
	}
	var sel *ops.Sel
	var err error
	for _, j := range joins {
		fk, err := q.Col("lineorder", j.fkCol)
		if err != nil {
			return nil, err
		}
		sel, err = ops.SemiJoin(fk, j.ht, sel, q.Opts())
		if err != nil {
			return nil, err
		}
	}
	keys := make([]*ops.Vec, 0, len(joins))
	for _, j := range joins {
		if j.attr == "" {
			continue
		}
		vec, err := gatherDim(q, sel, "lineorder", j.fkCol, j.ht, j.dimTable, j.attr)
		if err != nil {
			return nil, err
		}
		keys = append(keys, q.PreAggregate(vec))
	}
	gids, groups, err := ops.GroupBy(keys, q.Opts())
	if err != nil {
		return nil, err
	}
	meas, err := gatherFact(q, measure, sel)
	if err != nil {
		return nil, err
	}
	meas = q.PreAggregate(meas)
	var sums *ops.Vec
	if measureB == "" {
		sums, err = ops.SumGrouped(meas, gids, len(groups), q.Opts())
	} else {
		measB, errB := gatherFact(q, measureB, sel)
		if errB != nil {
			return nil, errB
		}
		sums, err = ops.SumDiffGrouped(meas, q.PreAggregate(measB), gids, len(groups), q.Opts())
	}
	if err != nil {
		return nil, err
	}
	return q.Finish(groups, sums)
}

// q2Flight is the shared shape of Q2.x: a part filter, a supplier region
// filter, grouping by (d_year, p_brand1) over revenue.
func q2Flight(q *exec.Query, partPred pred, sRegion string) (*ops.Result, error) {
	partHT, err := buildDim(q, "part", "p_partkey", []pred{partPred})
	if err != nil {
		return nil, err
	}
	sPred, err := eqStr(q, "supplier", "s_region", sRegion)
	if err != nil {
		return nil, err
	}
	suppHT, err := buildDim(q, "supplier", "s_suppkey", []pred{sPred})
	if err != nil {
		return nil, err
	}
	dateSel, err := allRows(q, "date", "d_datekey")
	if err != nil {
		return nil, err
	}
	dateHT, err := buildDimSel(q, "date", "d_datekey", dateSel)
	if err != nil {
		return nil, err
	}
	return starGroupBy(q, []groupSpec{
		{fkCol: "lo_partkey", ht: partHT, dimTable: "part", attr: "p_brand1"},
		{fkCol: "lo_suppkey", ht: suppHT},
		{fkCol: "lo_orderdate", ht: dateHT, dimTable: "date", attr: "d_year"},
	}, "lo_revenue", "")
}

// Q21 is SSB Q2.1: category MFGR#12, suppliers in AMERICA.
func Q21(q *exec.Query) (*ops.Result, error) {
	p, err := eqStr(q, "part", "p_category", "MFGR#12")
	if err != nil {
		return nil, err
	}
	return q2Flight(q, p, "AMERICA")
}

// Q22 is SSB Q2.2: brands MFGR#2221..MFGR#2228, suppliers in ASIA.
func Q22(q *exec.Query) (*ops.Result, error) {
	p, err := rangeStr(q, "part", "p_brand1", "MFGR#2221", "MFGR#2228")
	if err != nil {
		return nil, err
	}
	return q2Flight(q, p, "ASIA")
}

// Q23 is SSB Q2.3: brand MFGR#2239, suppliers in EUROPE.
func Q23(q *exec.Query) (*ops.Result, error) {
	p, err := eqStr(q, "part", "p_brand1", "MFGR#2239")
	if err != nil {
		return nil, err
	}
	return q2Flight(q, p, "EUROPE")
}

// q3Flight is the shared shape of Q3.x: customer and supplier filters, a
// date restriction, grouping by a customer attribute, a supplier
// attribute and d_year over revenue.
func q3Flight(q *exec.Query, custSel, suppSel *ops.Sel, datePreds []pred, custAttr, suppAttr string) (*ops.Result, error) {
	custHT, err := buildDimSel(q, "customer", "c_custkey", custSel)
	if err != nil {
		return nil, err
	}
	suppHT, err := buildDimSel(q, "supplier", "s_suppkey", suppSel)
	if err != nil {
		return nil, err
	}
	dateHT, err := buildDim(q, "date", "d_datekey", datePreds)
	if err != nil {
		return nil, err
	}
	return starGroupBy(q, []groupSpec{
		{fkCol: "lo_custkey", ht: custHT, dimTable: "customer", attr: custAttr},
		{fkCol: "lo_suppkey", ht: suppHT, dimTable: "supplier", attr: suppAttr},
		{fkCol: "lo_orderdate", ht: dateHT, dimTable: "date", attr: "d_year"},
	}, "lo_revenue", "")
}

// Q31 is SSB Q3.1: ASIA-to-ASIA trade by nation pair and year, 1992-1997.
func Q31(q *exec.Query) (*ops.Result, error) {
	cPred, err := eqStr(q, "customer", "c_region", "ASIA")
	if err != nil {
		return nil, err
	}
	sPred, err := eqStr(q, "supplier", "s_region", "ASIA")
	if err != nil {
		return nil, err
	}
	custSel, err := filterTable(q, "customer", []pred{cPred})
	if err != nil {
		return nil, err
	}
	suppSel, err := filterTable(q, "supplier", []pred{sPred})
	if err != nil {
		return nil, err
	}
	return q3Flight(q, custSel, suppSel,
		[]pred{{col: "d_year", lo: 1992, hi: 1997}}, "c_nation", "s_nation")
}

// Q32 is SSB Q3.2: United States by city pair and year.
func Q32(q *exec.Query) (*ops.Result, error) {
	cPred, err := eqStr(q, "customer", "c_nation", "UNITED STATES")
	if err != nil {
		return nil, err
	}
	sPred, err := eqStr(q, "supplier", "s_nation", "UNITED STATES")
	if err != nil {
		return nil, err
	}
	custSel, err := filterTable(q, "customer", []pred{cPred})
	if err != nil {
		return nil, err
	}
	suppSel, err := filterTable(q, "supplier", []pred{sPred})
	if err != nil {
		return nil, err
	}
	return q3Flight(q, custSel, suppSel,
		[]pred{{col: "d_year", lo: 1992, hi: 1997}}, "c_city", "s_city")
}

var q33Cities = []string{cityOf("UNITED KINGDOM", 1), cityOf("UNITED KINGDOM", 5)}

// Q33 is SSB Q3.3: the UNITED KI1/UNITED KI5 city pairs, 1992-1997.
func Q33(q *exec.Query) (*ops.Result, error) {
	custSel, err := filterIn(q, "customer", "c_city", q33Cities)
	if err != nil {
		return nil, err
	}
	suppSel, err := filterIn(q, "supplier", "s_city", q33Cities)
	if err != nil {
		return nil, err
	}
	return q3Flight(q, custSel, suppSel,
		[]pred{{col: "d_year", lo: 1992, hi: 1997}}, "c_city", "s_city")
}

// Q34 is SSB Q3.4: the same city pairs in December 1997.
func Q34(q *exec.Query) (*ops.Result, error) {
	custSel, err := filterIn(q, "customer", "c_city", q33Cities)
	if err != nil {
		return nil, err
	}
	suppSel, err := filterIn(q, "supplier", "s_city", q33Cities)
	if err != nil {
		return nil, err
	}
	ymPred, err := eqStr(q, "date", "d_yearmonth", "Dec1997")
	if err != nil {
		return nil, err
	}
	return q3Flight(q, custSel, suppSel, []pred{ymPred}, "c_city", "s_city")
}

// Q41 is SSB Q4.1: America-to-America profit by year and customer nation,
// manufacturers MFGR#1 and MFGR#2.
func Q41(q *exec.Query) (*ops.Result, error) {
	cPred, err := eqStr(q, "customer", "c_region", "AMERICA")
	if err != nil {
		return nil, err
	}
	sPred, err := eqStr(q, "supplier", "s_region", "AMERICA")
	if err != nil {
		return nil, err
	}
	pPred, err := rangeStr(q, "part", "p_mfgr", "MFGR#1", "MFGR#2")
	if err != nil {
		return nil, err
	}
	custHT, err := buildDim(q, "customer", "c_custkey", []pred{cPred})
	if err != nil {
		return nil, err
	}
	suppHT, err := buildDim(q, "supplier", "s_suppkey", []pred{sPred})
	if err != nil {
		return nil, err
	}
	partHT, err := buildDim(q, "part", "p_partkey", []pred{pPred})
	if err != nil {
		return nil, err
	}
	dateSel, err := allRows(q, "date", "d_datekey")
	if err != nil {
		return nil, err
	}
	dateHT, err := buildDimSel(q, "date", "d_datekey", dateSel)
	if err != nil {
		return nil, err
	}
	return starGroupBy(q, []groupSpec{
		{fkCol: "lo_custkey", ht: custHT, dimTable: "customer", attr: "c_nation"},
		{fkCol: "lo_suppkey", ht: suppHT},
		{fkCol: "lo_partkey", ht: partHT},
		{fkCol: "lo_orderdate", ht: dateHT, dimTable: "date", attr: "d_year"},
	}, "lo_revenue", "lo_supplycost")
}

// Q42 is SSB Q4.2: 1997-1998 profit by year, supplier nation and part
// category.
func Q42(q *exec.Query) (*ops.Result, error) {
	cPred, err := eqStr(q, "customer", "c_region", "AMERICA")
	if err != nil {
		return nil, err
	}
	sPred, err := eqStr(q, "supplier", "s_region", "AMERICA")
	if err != nil {
		return nil, err
	}
	pPred, err := rangeStr(q, "part", "p_mfgr", "MFGR#1", "MFGR#2")
	if err != nil {
		return nil, err
	}
	custHT, err := buildDim(q, "customer", "c_custkey", []pred{cPred})
	if err != nil {
		return nil, err
	}
	suppHT, err := buildDim(q, "supplier", "s_suppkey", []pred{sPred})
	if err != nil {
		return nil, err
	}
	partHT, err := buildDim(q, "part", "p_partkey", []pred{pPred})
	if err != nil {
		return nil, err
	}
	dateHT, err := buildDim(q, "date", "d_datekey", []pred{{col: "d_year", lo: 1997, hi: 1998}})
	if err != nil {
		return nil, err
	}
	return starGroupBy(q, []groupSpec{
		{fkCol: "lo_custkey", ht: custHT},
		{fkCol: "lo_suppkey", ht: suppHT, dimTable: "supplier", attr: "s_nation"},
		{fkCol: "lo_partkey", ht: partHT, dimTable: "part", attr: "p_category"},
		{fkCol: "lo_orderdate", ht: dateHT, dimTable: "date", attr: "d_year"},
	}, "lo_revenue", "lo_supplycost")
}

// Q43 is SSB Q4.3: 1997-1998 United States suppliers in category MFGR#14,
// profit by year, supplier city and brand.
func Q43(q *exec.Query) (*ops.Result, error) {
	cPred, err := eqStr(q, "customer", "c_region", "AMERICA")
	if err != nil {
		return nil, err
	}
	sPred, err := eqStr(q, "supplier", "s_nation", "UNITED STATES")
	if err != nil {
		return nil, err
	}
	pPred, err := eqStr(q, "part", "p_category", "MFGR#14")
	if err != nil {
		return nil, err
	}
	custHT, err := buildDim(q, "customer", "c_custkey", []pred{cPred})
	if err != nil {
		return nil, err
	}
	suppHT, err := buildDim(q, "supplier", "s_suppkey", []pred{sPred})
	if err != nil {
		return nil, err
	}
	partHT, err := buildDim(q, "part", "p_partkey", []pred{pPred})
	if err != nil {
		return nil, err
	}
	dateHT, err := buildDim(q, "date", "d_datekey", []pred{{col: "d_year", lo: 1997, hi: 1998}})
	if err != nil {
		return nil, err
	}
	return starGroupBy(q, []groupSpec{
		{fkCol: "lo_custkey", ht: custHT},
		{fkCol: "lo_suppkey", ht: suppHT, dimTable: "supplier", attr: "s_city"},
		{fkCol: "lo_partkey", ht: partHT, dimTable: "part", attr: "p_brand1"},
		{fkCol: "lo_orderdate", ht: dateHT, dimTable: "date", attr: "d_year"},
	}, "lo_revenue", "lo_supplycost")
}
