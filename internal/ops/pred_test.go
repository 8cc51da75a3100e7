package ops

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ahead/internal/hashmap"
	"ahead/internal/storage"
)

// predOracle is the range predicate by definition, one element at a
// time: the domain rule (a lower bound beyond the column's domain
// selects nothing and touches nothing, an upper bound saturates), then
// per row either the stored value (plain), the raw code word against
// hardened bounds (Late, Eq. 6) or the softened value after its
// Algorithm-1 check (Continuous). Every kernel that evaluates a
// fusedPred is held to it, positions and log entries alike.
func predOracle(col *storage.Column, lo, hi uint64, detect bool, rows []uint64, log *ErrorLog) []uint64 {
	code := col.Code()
	max := uint64(1)<<(8*uint(col.Width())) - 1 // 8 bytes: the shift yields 0, minus 1 is all ones
	if code != nil {
		max = code.MaxData()
	}
	out := []uint64{}
	if lo > hi || lo > max {
		return out
	}
	hi = min(hi, max)
	for _, r := range rows {
		v := col.Get(int(r))
		switch {
		case code != nil && detect:
			d, ok := code.Check(v)
			if !ok {
				log.Record(col.Name(), r)
				continue
			}
			v = d
		case code != nil:
			if code.Encode(lo) <= v && v <= code.Encode(hi) {
				out = append(out, r)
			}
			continue
		}
		if lo <= v && v <= hi {
			out = append(out, r)
		}
	}
	return out
}

// predBounds returns in-, at- and over-domain ranges for a column whose
// domain maximum is max (present is a value the column holds).
func predBounds(max, present uint64) [][2]uint64 {
	b := [][2]uint64{
		{0, max / 3}, {max / 4, max / 2}, {present, present}, {0, 0},
		{0, max}, {max, max}, {max - 1, max}, {5, 4},
	}
	if max != ^uint64(0) {
		b = append(b, [2]uint64{max / 2, max + 1}, [2]uint64{max / 2, ^uint64(0)},
			[2]uint64{max + 1, max + 7}, [2]uint64{max + 1, ^uint64(0)}, [2]uint64{^uint64(0), ^uint64(0)})
	}
	return b
}

// predColumn fills a column of the given kind with values over its whole
// data domain, the domain extremes included.
func predColumn(t *testing.T, rng *rand.Rand, kind storage.Kind, max uint64, n int) *storage.Column {
	t.Helper()
	col, err := storage.NewColumn("v", kind)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := rng.Uint64() & max
		switch i % 97 {
		case 3:
			v = max
		case 5:
			v = 0
		}
		col.Append(v)
	}
	return col
}

func allRows(n int) []uint64 {
	rows := make([]uint64, n)
	for i := range rows {
		rows[i] = uint64(i)
	}
	return rows
}

// TestDifferentialPredicate holds every evaluator of the one range
// predicate to predOracle: every chooser-reachable code and every plain
// storage width x {plain, raw-hardened, checked} x {packed mirror, wide}
// x {Scalar, Blocked} x {Filter, FilterSel over a plain and a hardened
// selection, fused scan, fused refine over a list} x in/at/over-domain
// bounds, clean and with single-bit flips at block edges, serial and
// goroutine-per-morsel. Positions and error-log entries (and their
// order) must be equal.
func TestDifferentialPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = fusedBlockRows + 333 // two blocks, the second ragged
	type subject struct {
		name    string
		col     *storage.Column
		present uint64 // a value the column holds
	}
	var subjects []subject
	for _, k := range []storage.Kind{storage.TinyInt, storage.ShortInt, storage.Int, storage.BigInt} {
		max := ^uint64(0) >> (64 - 8*uint(k.NaturalWidth()))
		col := predColumn(t, rng, k, max, n)
		subjects = append(subjects, subject{fmt.Sprintf("plain/%v", k), col, col.Get(11)})
	}
	packed := 0
	for _, c := range chooserCodes(t) {
		col := predColumn(t, rng, c.kind, c.code.MaxData(), n)
		h := harden(t, col, c.code)
		plantFlips(rng, h)
		if h.Packed() != nil {
			packed++
		}
		subjects = append(subjects, subject{fmt.Sprintf("hardened/%v", c.code), h, col.Get(11)})
	}
	if packed == 0 {
		t.Fatal("no chooser code qualifies for the packed mirror; the packed half is vacuous")
	}

	// The selection the refining forms start from: two of every three
	// rows, as a plain list and a hardened list.
	var subset []uint64
	for r := 0; r < n; r++ {
		if r%3 != 1 {
			subset = append(subset, uint64(r))
		}
	}
	selPlain := &Sel{Pos: subset}
	selHard := &Sel{Hardened: true, Pos: make([]uint64, len(subset))}
	for i, p := range subset {
		selHard.Pos[i] = PosCode.Encode(p)
	}
	runners := map[string]Parallel{"serial": nil, "pooled": goMorsels{morsel: 257}}

	before := LiveScratch()
	for _, s := range subjects {
		col := s.col
		domain := ^uint64(0) >> (64 - 8*uint(col.Width()))
		detects := []bool{false}
		if code := col.Code(); code != nil {
			domain, detects = code.MaxData(), []bool{false, true}
		}
		for _, b := range predBounds(domain, s.present) {
			lo, hi := b[0], b[1]
			for _, detect := range detects {
				wantAllLog, wantSubLog := NewErrorLog(), NewErrorLog()
				wantAll := predOracle(col, lo, hi, detect, allRows(n), wantAllLog)
				wantSub := predOracle(col, lo, hi, detect, subset, wantSubLog)
				for _, noPacked := range []bool{false, true} {
					if !noPacked && col.Packed() == nil {
						continue
					}
					for _, fl := range []Flavor{Scalar, Blocked} {
						id := fmt.Sprintf("%s [%d,%d] detect=%v noPacked=%v %v", s.name, lo, hi, detect, noPacked, fl)
						check := func(form string, got []uint64, log *ErrorLog, want []uint64, wantLog *ErrorLog) {
							t.Helper()
							if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
								t.Fatalf("%s %s: %d positions, oracle %d", id, form, len(got), len(want))
							}
							if !log.Equal(wantLog) {
								t.Fatalf("%s %s: log %v, oracle %v", id, form, log.Entries(), wantLog.Entries())
							}
						}
						for rname, par := range runners {
							log := NewErrorLog()
							o := &Opts{Detect: detect, HardenIDs: detect, Flavor: fl, Log: log, NoPacked: noPacked, Par: par}
							sel, err := Filter(col, lo, hi, o)
							if err != nil {
								t.Fatal(err)
							}
							check("Filter/"+rname, plainPositions(t, sel), log, wantAll, wantAllLog)
							for _, in := range []*Sel{selPlain, selHard} {
								log.Reset()
								sel, err := FilterSel(col, lo, hi, in, o)
								if err != nil {
									t.Fatal(err)
								}
								if sel.Hardened != in.Hardened {
									t.Fatalf("%s FilterSel: hardened flag %v, input %v", id, sel.Hardened, in.Hardened)
								}
								check(fmt.Sprintf("FilterSel/%s/hardened=%v", rname, in.Hardened), plainPositions(t, sel), log, wantSub, wantSubLog)
							}
						}

						log := NewErrorLog()
						f := makeFusedPred(RangePred{Col: col, Lo: lo, Hi: hi}, &Opts{Detect: detect, NoPacked: noPacked})
						if f.empty {
							check("fused/empty", nil, log, wantAll, wantAllLog)
							check("fused/empty", nil, log, wantSub, wantSubLog)
							continue
						}
						buf := borrowU64(fusedBlockRows)
						var got []uint64
						for bs := 0; bs < n; bs += fusedBlockRows {
							got = append(got, f.scan(bs, min(bs+fusedBlockRows, n), 1, fl, log, *buf)...)
						}
						releaseU64(buf)
						check("fused scan", got, log, wantAll, wantAllLog)

						log.Reset()
						list := append([]uint64(nil), subset...)
						check("fused refine-list", f.refineList(log, list), log, wantSub, wantSubLog)
					}
				}
			}
		}
	}
	if got := LiveScratch(); got != before {
		t.Fatalf("scratch leak: %d live buffers before, %d after", before, got)
	}
}

// fusedLoFixture is the smallest star the fused kernels run over: a
// predicate column, a selective and an unselective lead column, an FK
// every row of which matches, one group attribute and a measure.
type fusedLoFixture struct {
	few, many, fk, attr, meas *storage.Column
	ht                        *hashmap.U64
}

// TestFusedPredicateBeyondStorageDomain is the regression test of the
// fused kernels' out-of-domain lower bound: on a plain u8/u16/u32 column
// holding its type maximum, a predicate whose lower bound lies beyond
// the storage width used to be clamped onto that maximum and select it
// (the bug Filter lost in PR 9). The fused Q1 kernel and the fused
// cascade must agree with Filter/FilterSel for bounds beyond, across and
// inverted around the domain, with the predicate first (block scan),
// later behind a selective lead (list refine) and later behind an
// unselective lead (bitmap refine), with the other columns
// plain (Unprotected) or hardened without and with detection (Late,
// Continuous - the shape a residue-demoted predicate column has).
func TestFusedPredicateBeyondStorageDomain(t *testing.T) {
	const n = 2*fusedBlockRows + 100
	mk := func(name string, kind storage.Kind, f func(i int) uint64) *storage.Column {
		c, err := storage.NewColumn(name, kind)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			c.Append(f(i))
		}
		return c
	}
	plain := fusedLoFixture{
		few:  mk("few", storage.TinyInt, func(i int) uint64 { return uint64(i % 16) }), // ==0: 256 per block, a list
		many: mk("many", storage.TinyInt, func(i int) uint64 { return uint64(i % 2) }), // ==0: 2048 per block, a bitmap
		fk:   mk("fk", storage.Int, func(i int) uint64 { return uint64(i % 7) }),
		attr: tinyColumn(t, "attr", []uint64{3, 3, 3, 3, 3, 3, 3}),
		meas: mk("meas", storage.Int, func(i int) uint64 { return uint64(1 + i%1000) }),
		ht:   buildTestHT(0, 1, 2, 3, 4, 5, 6),
	}
	hard := plain
	hard.fk, hard.meas, hard.attr = harden(t, plain.fk, code32), harden(t, plain.meas, code32), harden(t, plain.attr, code8)

	modes := []struct {
		name string
		fx   fusedLoFixture
		o    func(log *ErrorLog) *Opts
	}{
		{"Unprotected", plain, func(log *ErrorLog) *Opts { return &Opts{Flavor: Blocked, Log: log} }},
		{"Late", hard, func(log *ErrorLog) *Opts { return &Opts{Flavor: Blocked, Log: log} }},
		{"Continuous", hard, func(log *ErrorLog) *Opts { return &Opts{Detect: true, HardenIDs: true, Flavor: Blocked, Log: log} }},
	}
	for _, k := range []storage.Kind{storage.TinyInt, storage.ShortInt, storage.Int} {
		max := ^uint64(0) >> (64 - 8*uint(k.NaturalWidth()))
		col := mk("v", k, func(i int) uint64 {
			if i%5 == 0 {
				return max
			}
			return uint64(i) & max
		})
		bounds := map[string][2]uint64{
			"lo>max":     {max + 45, max + 145},
			"hi>max>=lo": {max - 3, max + 100},
			"lo>hi":      {max, max - 1},
		}
		for bname, b := range bounds {
			under := RangePred{Col: col, Lo: b[0], Hi: b[1]}
			for _, m := range modes {
				leads := map[string][]RangePred{
					"first":        nil,
					"later/list":   {{Col: m.fx.few, Lo: 0, Hi: 0}},
					"later/bitmap": {{Col: m.fx.many, Lo: 0, Hi: 0}},
				}
				for pname, lead := range leads {
					id := fmt.Sprintf("%v %s %s %s", k, bname, m.name, pname)
					preds := append(append([]RangePred(nil), lead...), under)

					// The reference: Filter/FilterSel, then the measure
					// summed (squared, for Q1's sum-product) over the
					// survivors - every FK matches, the one group is 3.
					refLog := NewErrorLog()
					ro := m.o(refLog)
					var sel *Sel
					var err error
					for i, p := range preds {
						if i == 0 {
							sel, err = Filter(p.Col, p.Lo, p.Hi, ro)
						} else {
							sel, err = FilterSel(p.Col, p.Lo, p.Hi, sel, ro)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					var wantSum, wantSq uint64
					for _, p := range plainPositions(t, sel) {
						v := plain.meas.Get(int(p))
						wantSum += v
						wantSq += v * v
					}
					if bname == "hi>max>=lo" && pname == "first" && wantSum == 0 {
						t.Fatalf("%s: reference selects nothing; the test is vacuous", id)
					}

					log := NewErrorLog()
					rev, err := FusedFilterSemiSumProduct(preds, m.fx.fk, m.fx.ht, m.fx.meas, m.fx.meas, m.o(log))
					if err != nil {
						t.Fatal(err)
					}
					if got := rev.Value(0); got != wantSq {
						t.Fatalf("%s: fused Q1 sums %d, Filter/FilterSel reference %d", id, got, wantSq)
					}
					groups, sums, err := FusedProbeGroupSum(preds, []FusedJoin{{FK: m.fx.fk, HT: m.fx.ht, Attr: m.fx.attr}}, m.fx.meas, m.o(log))
					if err != nil {
						t.Fatal(err)
					}
					var got uint64
					if len(groups) > 0 {
						got = sums.Value(0)
					}
					if len(groups) > 1 || got != wantSum {
						t.Fatalf("%s: fused cascade groups %v sum %d, Filter/FilterSel reference %d", id, groups, got, wantSum)
					}
					if log.Count() != 0 || refLog.Count() != 0 {
						t.Fatalf("%s: clean data logged %d/%d errors", id, log.Count(), refLog.Count())
					}
				}
			}
		}
	}
}
