package ssb

import (
	"errors"
	"math"

	"ahead/internal/exec"
	"ahead/internal/hashmap"
	"ahead/internal/ops"
)

// flights are the 13 SSB queries as the manually written plans of
// Section 6.1 describe them: the dimensions each joins, its lineorder
// predicates and its aggregate. One plan (flight.plan) runs all of them
// under every execution mode.
var flights = []flight{
	{name: "Q1.1", dims: []dim{date("", num("d_year", 1993, 1993))},
		preds: []cond{num("lo_discount", 1, 3), num("lo_quantity", 0, 24)},
		sum:   "lo_extendedprice", times: "lo_discount"},
	{name: "Q1.2", dims: []dim{date("", num("d_yearmonthnum", 199401, 199401))},
		preds: []cond{num("lo_discount", 4, 6), num("lo_quantity", 26, 35)},
		sum:   "lo_extendedprice", times: "lo_discount"},
	{name: "Q1.3", dims: []dim{date("", num("d_weeknuminyear", 6, 6), num("d_year", 1994, 1994))},
		preds: []cond{num("lo_discount", 5, 7), num("lo_quantity", 26, 35)},
		sum:   "lo_extendedprice", times: "lo_discount"},

	{name: "Q2.1", dims: []dim{part("p_brand1", eq("p_category", "MFGR#12")),
		supplier("", eq("s_region", "AMERICA")), date("d_year")}, sum: "lo_revenue"},
	{name: "Q2.2", dims: []dim{part("p_brand1", between("p_brand1", "MFGR#2221", "MFGR#2228")),
		supplier("", eq("s_region", "ASIA")), date("d_year")}, sum: "lo_revenue"},
	{name: "Q2.3", dims: []dim{part("p_brand1", eq("p_brand1", "MFGR#2239")),
		supplier("", eq("s_region", "EUROPE")), date("d_year")}, sum: "lo_revenue"},

	{name: "Q3.1", dims: []dim{customer("c_nation", eq("c_region", "ASIA")),
		supplier("s_nation", eq("s_region", "ASIA")), date("d_year", num("d_year", 1992, 1997))}, sum: "lo_revenue"},
	{name: "Q3.2", dims: []dim{customer("c_city", eq("c_nation", "UNITED STATES")),
		supplier("s_city", eq("s_nation", "UNITED STATES")), date("d_year", num("d_year", 1992, 1997))}, sum: "lo_revenue"},
	{name: "Q3.3", dims: []dim{customer("c_city", in("c_city", ukCities...)),
		supplier("s_city", in("s_city", ukCities...)), date("d_year", num("d_year", 1992, 1997))}, sum: "lo_revenue"},
	{name: "Q3.4", dims: []dim{customer("c_city", in("c_city", ukCities...)),
		supplier("s_city", in("s_city", ukCities...)), date("d_year", eq("d_yearmonth", "Dec1997"))}, sum: "lo_revenue"},

	{name: "Q4.1", dims: []dim{customer("c_nation", eq("c_region", "AMERICA")), supplier("", eq("s_region", "AMERICA")),
		part("", between("p_mfgr", "MFGR#1", "MFGR#2")), date("d_year")}, sum: "lo_revenue", minus: "lo_supplycost"},
	{name: "Q4.2", dims: []dim{customer("", eq("c_region", "AMERICA")), supplier("s_nation", eq("s_region", "AMERICA")),
		part("p_category", between("p_mfgr", "MFGR#1", "MFGR#2")), date("d_year", num("d_year", 1997, 1998))},
		sum: "lo_revenue", minus: "lo_supplycost"},
	{name: "Q4.3", dims: []dim{customer("", eq("c_region", "AMERICA")), supplier("s_city", eq("s_nation", "UNITED STATES")),
		part("p_brand1", eq("p_category", "MFGR#14")), date("d_year", num("d_year", 1997, 1998))},
		sum: "lo_revenue", minus: "lo_supplycost"},
}

// ukCities is the IN list of Q3.3/Q3.4: UNITED KI1 and UNITED KI5.
var ukCities = []string{cityOf("UNITED KINGDOM", 1), cityOf("UNITED KINGDOM", 5)}

// QueryNames lists the 13 SSB queries in benchmark order; Queries maps
// each name to its plan, usable under every execution mode.
var QueryNames, Queries = flightTable(flights)

func flightTable(fs []flight) ([]string, map[string]exec.QueryFunc) {
	names := make([]string, len(fs))
	plans := make(map[string]exec.QueryFunc, len(fs))
	for i, f := range fs {
		names[i], plans[f.name] = f.name, f.plan
	}
	return names, plans
}

// flight is one star query over a fact table (lineorder for the SSB
// flights, any table for an ad-hoc request): filter and hash every
// dimension in listed order, then filter the table by preds, join it to
// every dimension, group by the dimensions' attributes and the table's
// own groupBy columns and aggregate Σ sum, Σ sum − minus or a row count
// per group - or, without group columns, the scalar Σ sum, Σ sum · times
// or count (times set: no group column - the fused scalar sink takes a
// single semijoin).
type flight struct {
	name              string
	table             string // the scanned table; lineorder when empty
	dims              []dim
	preds             []cond   // numeric ranges over the table's columns
	groupBy           []string // group columns of the table itself
	sum, minus, times string
	count             bool
}

// fact returns the table the flight scans.
func (f flight) fact() string {
	if f.table == "" {
		return "lineorder"
	}
	return f.table
}

// dim is one dimension join: the table filtered by conds (no conds keep
// every row), hashed on key and probed through the lineorder column fk;
// attr, if set, is a group attribute.
type dim struct {
	table, key, fk, attr string
	conds                []cond
}

func date(attr string, conds ...cond) dim {
	return dim{"date", "d_datekey", "lo_orderdate", attr, conds}
}

func customer(attr string, conds ...cond) dim {
	return dim{"customer", "c_custkey", "lo_custkey", attr, conds}
}

func supplier(attr string, conds ...cond) dim {
	return dim{"supplier", "s_suppkey", "lo_suppkey", attr, conds}
}

func part(attr string, conds ...cond) dim {
	return dim{"part", "p_partkey", "lo_partkey", attr, conds}
}

// cond is one conjunct of a filter: the inclusive range lo..hi on col,
// or - on a dictionary-encoded string column, resolved per query - any
// of the values strs, or with between the string range strs[0]..strs[1].
type cond struct {
	col     string
	lo, hi  uint64
	strs    []string
	between bool
}

func num(col string, lo, hi uint64) cond { return cond{col: col, lo: lo, hi: hi} }

func eq(col, val string) cond { return in(col, val) }

func in(col string, vals ...string) cond { return cond{col: col, strs: vals} }

func between(col, lo, hi string) cond {
	return cond{col: col, strs: []string{lo, hi}, between: true}
}

// ranges resolves c to the inclusive code ranges it selects. A string
// value missing from the dictionary contributes none.
func (c cond) ranges(q *exec.Query, table string) ([][2]uint64, error) {
	if c.strs == nil {
		return [][2]uint64{{c.lo, c.hi}}, nil
	}
	d, err := q.Dict(table, c.col)
	if err != nil {
		return nil, err
	}
	if c.between {
		first, last, ok := d.CodeRange(c.strs[0], c.strs[1])
		if !ok {
			return nil, nil
		}
		return [][2]uint64{{uint64(first), uint64(last)}}, nil
	}
	var rs [][2]uint64
	for _, v := range c.strs {
		if code, ok := d.Code(v); ok {
			rs = append(rs, [2]uint64{uint64(code), uint64(code)})
		}
	}
	return rs, nil
}

// everyRow is the filter that keeps every row of col's table.
func everyRow(col string) []cond { return []cond{num(col, 0, math.MaxUint64)} }

// filter applies conjunctive conditions to a table and returns the
// qualifying selection. A condition of several code ranges (an IN list)
// unions its per-range selections.
func filter(q *exec.Query, table string, conds []cond) (*ops.Sel, error) {
	o := q.Opts()
	var sel *ops.Sel
	for i, c := range conds {
		col, err := q.Col(table, c.col)
		if err != nil {
			return nil, err
		}
		rs, err := c.ranges(q, table)
		if err != nil {
			return nil, err
		}
		var merged *ops.Sel
		for _, r := range rs {
			var s *ops.Sel
			if i == 0 {
				s, err = ops.Filter(col, r[0], r[1], o)
			} else {
				s, err = ops.FilterSel(col, r[0], r[1], sel, o)
			}
			if err != nil {
				return nil, err
			}
			merged = unionSels(merged, s)
		}
		if merged == nil {
			merged = &ops.Sel{Hardened: o.HardenIDs}
		}
		sel = merged
	}
	return sel, nil
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

// gather fetches table.col at the rows of sel - or, with sel nil, at the
// build positions at that a probe matched - and applies the mode's
// output adaptations: Reencoding's re-hardening, then Late's
// pre-aggregation check.
func gather(q *exec.Query, table, col string, sel *ops.Sel, at []uint32) (*ops.Vec, error) {
	c, err := q.Col(table, col)
	if err != nil {
		return nil, err
	}
	var v *ops.Vec
	if sel != nil {
		v, err = ops.Gather(c, sel, q.Opts())
	} else {
		v, err = ops.GatherAt(c, at, q.Opts())
	}
	if err != nil {
		return nil, err
	}
	if v, err = q.Reencode(v); err != nil {
		return nil, err
	}
	return q.PreAggregate(v), nil
}

// plan builds every dimension's hash table, then runs the rest as one
// fused pass over the table (ops.FusedFilterSemiSumProduct,
// ops.FusedProbeGroupSum[Diff]) under every mode. A flight without
// dimensions runs the operator tail, since the cascade needs a join;
// exec.WithFusion(false) forces the tail too, and so does a group-key
// component wider than the cascade stages (ops.ErrFusedKeyDomain: a wide
// attribute, or under Late a corrupted one): the cascade has then
// logged nothing, and the operators size keys by their decoded domain.
func (f flight) plan(q *exec.Query) (*ops.Result, error) {
	hts := make([]*hashmap.U64, len(f.dims))
	for i, d := range f.dims {
		conds := d.conds
		if len(conds) == 0 {
			conds = everyRow(d.key)
		}
		sel, err := filter(q, d.table, conds)
		if err != nil {
			return nil, err
		}
		key, err := q.Col(d.table, d.key)
		if err != nil {
			return nil, err
		}
		if hts[i], err = ops.HashBuild(key, sel, q.Opts()); err != nil {
			return nil, err
		}
	}
	if q.FuseOperators() && len(f.dims) > 0 {
		res, err := f.fused(q, hts)
		if !errors.Is(err, ops.ErrFusedKeyDomain) {
			return res, err
		}
	}
	return f.tail(q, hts)
}

// fused runs everything after the builds as one block-at-a-time pass,
// with no materialized selection, match or value vector between the
// stages.
func (f flight) fused(q *exec.Query, hts []*hashmap.U64) (*ops.Result, error) {
	preds := make([]ops.RangePred, len(f.preds))
	for i, p := range f.preds {
		col, err := q.Col(f.fact(), p.col)
		if err != nil {
			return nil, err
		}
		preds[i] = ops.RangePred{Col: col, Lo: p.lo, Hi: p.hi}
	}
	joins := make([]ops.FusedJoin, len(f.dims))
	for i, d := range f.dims {
		fk, err := q.Col(f.fact(), d.fk)
		if err != nil {
			return nil, err
		}
		joins[i] = ops.FusedJoin{FK: fk, HT: hts[i]}
		if d.attr != "" {
			if joins[i].Attr, err = q.Col(d.table, d.attr); err != nil {
				return nil, err
			}
		}
	}
	a, err := q.Col(f.fact(), f.sum)
	if err != nil {
		return nil, err
	}
	if f.times != "" {
		b, err := q.Col(f.fact(), f.times)
		if err != nil {
			return nil, err
		}
		rev, err := ops.FusedFilterSemiSumProduct(preds, joins[0].FK, joins[0].HT, a, b, q.Opts())
		if err != nil {
			return nil, err
		}
		return q.FinishScalar(rev)
	}
	var groups [][]uint64
	var sums *ops.Vec
	if f.minus == "" {
		groups, sums, err = ops.FusedProbeGroupSum(preds, joins, a, q.Opts())
	} else {
		b, errB := q.Col(f.fact(), f.minus)
		if errB != nil {
			return nil, errB
		}
		groups, sums, err = ops.FusedProbeGroupSumDiff(preds, joins, a, b, q.Opts())
	}
	if err != nil {
		return nil, err
	}
	return q.Finish(groups, sums)
}

// tail runs everything after the builds operator at a time: filter,
// semijoin every dimension, gather the group attributes and the table's
// group columns and group, then count, or gather the measures and
// aggregate.
func (f flight) tail(q *exec.Query, hts []*hashmap.U64) (*ops.Result, error) {
	var sel *ops.Sel
	var err error
	if len(f.preds) > 0 {
		if sel, err = filter(q, f.fact(), f.preds); err != nil {
			return nil, err
		}
	}
	for i, d := range f.dims {
		fk, err := q.Col(f.fact(), d.fk)
		if err != nil {
			return nil, err
		}
		if sel, err = ops.SemiJoin(fk, hts[i], sel, q.Opts()); err != nil {
			return nil, err
		}
	}
	var keys []*ops.Vec
	for i, d := range f.dims {
		if d.attr == "" {
			continue
		}
		// Every row of sel matches: the re-probe yields the build
		// positions to fetch the attribute at.
		fk, err := q.Col(f.fact(), d.fk)
		if err != nil {
			return nil, err
		}
		_, at, err := ops.HashProbe(fk, hts[i], sel, q.Opts())
		if err != nil {
			return nil, err
		}
		key, err := gather(q, d.table, d.attr, nil, at)
		if err != nil {
			return nil, err
		}
		keys = append(keys, key)
	}
	for _, g := range f.groupBy {
		key, err := gather(q, f.fact(), g, sel, nil)
		if err != nil {
			return nil, err
		}
		keys = append(keys, key)
	}
	var gids []uint32
	var groups [][]uint64
	if len(keys) > 0 {
		if gids, groups, err = ops.GroupBy(keys, q.Opts()); err != nil {
			return nil, err
		}
	}
	if f.count {
		if len(keys) == 0 {
			return q.FinishScalar(&ops.Vec{Name: "count", Vals: []uint64{uint64(sel.Len())}})
		}
		sums, err := ops.CountGrouped(gids, len(groups), nil)
		if err != nil {
			return nil, err
		}
		return q.Finish(groups, sums)
	}
	a, err := gather(q, f.fact(), f.sum, sel, nil)
	if err != nil {
		return nil, err
	}
	var b *ops.Vec
	if second := f.times + f.minus; second != "" { // at most one is set
		if b, err = gather(q, f.fact(), second, sel, nil); err != nil {
			return nil, err
		}
	}
	var sums *ops.Vec
	switch {
	case f.times != "":
		if sums, err = ops.SumProduct(a, b, q.Opts()); err != nil {
			return nil, err
		}
		return q.FinishScalar(sums)
	case len(keys) == 0:
		if sums, err = ops.SumTotal(a, q.Opts()); err != nil {
			return nil, err
		}
		return q.FinishScalar(sums)
	case f.minus != "":
		sums, err = ops.SumDiffGrouped(a, b, gids, len(groups), q.Opts())
	default:
		sums, err = ops.SumGrouped(a, gids, len(groups), q.Opts())
	}
	if err != nil {
		return nil, err
	}
	return q.Finish(groups, sums)
}
