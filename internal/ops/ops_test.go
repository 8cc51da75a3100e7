package ops

import (
	"fmt"
	"reflect"
	"testing"

	"ahead/internal/an"
	"ahead/internal/storage"
)

func tinyColumn(t *testing.T, name string, vals []uint64) *storage.Column {
	t.Helper()
	c, err := storage.NewColumn(name, storage.TinyInt)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		c.Append(v)
	}
	return c
}

func intColumn(t *testing.T, name string, vals []uint64) *storage.Column {
	t.Helper()
	c, err := storage.NewColumn(name, storage.Int)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		c.Append(v)
	}
	return c
}

func harden(t *testing.T, c *storage.Column, code *an.Code) *storage.Column {
	t.Helper()
	h, err := c.Harden(code)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

var code8 = an.MustNew(233, 8)
var code32 = an.MustNew(32417, 32)

func plainPositions(t *testing.T, s *Sel) []uint64 {
	t.Helper()
	return s.Plain(nil)
}

func TestFilterPlainAllWidthsAndFlavors(t *testing.T) {
	vals := []uint64{5, 10, 15, 20, 25, 30, 10, 0, 255}
	col := tinyColumn(t, "v", vals)
	want := []uint64{1, 2, 3, 6} // values in [10,20]
	for _, fl := range []Flavor{Scalar, Blocked} {
		sel, err := Filter(col, 10, 20, &Opts{Flavor: fl})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sel.Pos, want) {
			t.Fatalf("%v: positions %v, want %v", fl, sel.Pos, want)
		}
	}
	// Equality predicate.
	sel, _ := Filter(col, 10, 10, nil)
	if !reflect.DeepEqual(sel.Pos, []uint64{1, 6}) {
		t.Fatalf("equality filter: %v", sel.Pos)
	}
	// Empty range.
	sel, _ = Filter(col, 21, 20, nil)
	if sel.Len() != 0 {
		t.Fatalf("inverted range must be empty, got %v", sel.Pos)
	}
}

func TestFilterHardenedLateVsContinuous(t *testing.T) {
	vals := []uint64{5, 10, 15, 20, 25, 30, 10, 0, 255}
	col := tinyColumn(t, "v", vals)
	h := harden(t, col, code8)
	want := []uint64{1, 2, 3, 6}

	// Late: hardened predicate, raw comparison, no checks.
	sel, err := Filter(h, 10, 20, &Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel.Pos, want) {
		t.Fatalf("late: %v, want %v", sel.Pos, want)
	}

	// Continuous: per-value checks, hardened IDs.
	log := NewErrorLog()
	for _, fl := range []Flavor{Scalar, Blocked} {
		sel, err = Filter(h, 10, 20, &Opts{Detect: true, HardenIDs: true, Flavor: fl, Log: log})
		if err != nil {
			t.Fatal(err)
		}
		if !sel.Hardened {
			t.Fatal("continuous filter must emit hardened IDs")
		}
		if got := plainPositions(t, sel); !reflect.DeepEqual(got, want) {
			t.Fatalf("continuous/%v: %v, want %v", fl, got, want)
		}
	}
	if log.Count() != 0 {
		t.Fatalf("clean column logged %d errors", log.Count())
	}
}

func TestFilterContinuousDetectsCorruption(t *testing.T) {
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i % 50)
	}
	col := tinyColumn(t, "qty", vals)
	h := harden(t, col, code8)
	h.Corrupt(7, 1<<3)       // value at 7 (=7, inside range) corrupted
	h.Corrupt(60, 1<<2|1<<9) // value at 60 (=10, outside range) corrupted
	log := NewErrorLog()
	sel, err := Filter(h, 0, 9, &Opts{Detect: true, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if log.Count() != 2 {
		t.Fatalf("logged %d errors, want 2", log.Count())
	}
	pos, err := log.Positions("qty")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pos, []uint64{7, 60}) {
		t.Fatalf("error positions %v", pos)
	}
	for _, p := range sel.Pos {
		if p == 7 || p == 60 {
			t.Fatal("corrupted rows must not qualify")
		}
	}
	// Late detection would silently mis-evaluate instead: no log entries.
	log2 := NewErrorLog()
	if _, err := Filter(h, 0, 9, &Opts{Log: log2}); err != nil {
		t.Fatal(err)
	}
	if log2.Count() != 0 {
		t.Fatal("late filter must not detect")
	}
}

func TestFilterSel(t *testing.T) {
	a := tinyColumn(t, "a", []uint64{1, 2, 3, 4, 5, 6, 7, 8})
	b := tinyColumn(t, "b", []uint64{9, 9, 0, 9, 0, 9, 0, 9})
	selA, _ := Filter(a, 3, 7, nil) // 2,3,4,5,6
	out, err := FilterSel(b, 9, 9, selA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Pos, []uint64{3, 5}) {
		t.Fatalf("conjunctive filter: %v", out.Pos)
	}
	// Hardened variant preserves hardened IDs through refinement.
	ha, hb := harden(t, a, code8), harden(t, b, code8)
	log := NewErrorLog()
	o := &Opts{Detect: true, HardenIDs: true, Log: log}
	selH, _ := Filter(ha, 3, 7, o)
	outH, err := FilterSel(hb, 9, 9, selH, o)
	if err != nil {
		t.Fatal(err)
	}
	if !outH.Hardened {
		t.Fatal("IDs must stay hardened")
	}
	if got := plainPositions(t, outH); !reflect.DeepEqual(got, []uint64{3, 5}) {
		t.Fatalf("hardened conjunctive filter: %v", got)
	}
	// Late (no detect) on hardened columns.
	selL, _ := Filter(ha, 3, 7, nil)
	outL, err := FilterSel(hb, 9, 9, selL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outL.Pos, []uint64{3, 5}) {
		t.Fatalf("late conjunctive filter: %v", outL.Pos)
	}
	// Inverted range short-circuits.
	empty, _ := FilterSel(b, 5, 2, selA, nil)
	if empty.Len() != 0 {
		t.Fatal("inverted range must be empty")
	}
}

func TestGather(t *testing.T) {
	col := tinyColumn(t, "v", []uint64{10, 20, 30, 40, 50})
	sel := &Sel{Pos: []uint64{1, 3, 4}}
	vec, err := Gather(col, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vec.Vals, []uint64{20, 40, 50}) {
		t.Fatalf("gather: %v", vec.Vals)
	}
	// Hardened gather keeps code words and the code.
	h := harden(t, col, code8)
	log := NewErrorLog()
	vecH, err := Gather(h, sel, &Opts{Detect: true, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if vecH.Code != code8 {
		t.Fatal("gather must propagate the code")
	}
	for i, want := range []uint64{20, 40, 50} {
		if vecH.Value(i) != want {
			t.Fatalf("hardened gather value %d: %d", i, vecH.Value(i))
		}
	}
	// Out-of-range position is a programming error, reported as error.
	if _, err := Gather(col, &Sel{Pos: []uint64{99}}, nil); err == nil {
		t.Fatal("OOB gather must error")
	}
	// Corrupted value is logged.
	h.Corrupt(3, 1<<5)
	log.Reset()
	if _, err := Gather(h, sel, &Opts{Detect: true, Log: log}); err != nil {
		t.Fatal(err)
	}
	if log.Count() != 1 {
		t.Fatalf("gather logged %d, want 1", log.Count())
	}
}

func TestGatherWithCorruptedHardenedID(t *testing.T) {
	col := tinyColumn(t, "v", []uint64{10, 20, 30})
	sel := &Sel{Pos: []uint64{PosCode.Encode(0), PosCode.Encode(2) ^ 1}, Hardened: true}
	log := NewErrorLog()
	vec, err := Gather(col, sel, &Opts{Detect: true, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if log.Count() != 1 {
		t.Fatalf("corrupted virtual ID not logged (%d)", log.Count())
	}
	if vec.Len() != 2 {
		t.Fatal("vector must stay aligned")
	}
	pos, err := log.Positions("virtual-ids")
	if err != nil || len(pos) != 1 {
		t.Fatalf("virtual-id log: %v, %v", pos, err)
	}
}

func TestHashBuildProbe(t *testing.T) {
	// Dimension: keys 100..104 at positions 0..4; select even keys only.
	dimKey := intColumn(t, "d_key", []uint64{100, 101, 102, 103, 104})
	dimSel := &Sel{Pos: []uint64{0, 2, 4}}
	ht, err := HashBuild(dimKey, dimSel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ht.Len() != 3 {
		t.Fatalf("build size %d", ht.Len())
	}
	// Fact: FK column.
	fk := intColumn(t, "lo_fk", []uint64{100, 101, 102, 100, 104, 999})
	probeSel, matches, err := HashProbe(fk, ht, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(probeSel.Pos, []uint64{0, 2, 3, 4}) {
		t.Fatalf("probe positions %v", probeSel.Pos)
	}
	if !reflect.DeepEqual(matches, []uint32{0, 2, 0, 4}) {
		t.Fatalf("matches %v", matches)
	}
	// Restricted probe.
	sub := &Sel{Pos: []uint64{3, 4, 5}}
	probeSel2, matches2, err := HashProbe(fk, ht, sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(probeSel2.Pos, []uint64{3, 4}) || !reflect.DeepEqual(matches2, []uint32{0, 4}) {
		t.Fatalf("restricted probe %v / %v", probeSel2.Pos, matches2)
	}
}

func TestHashJoinAcrossDifferentAs(t *testing.T) {
	// Join a dimension hardened with one A against a fact FK hardened
	// with another - the mixed-A adaptation of Section 5.2.
	dimKey := intColumn(t, "d_key", []uint64{100, 101, 102})
	fk := intColumn(t, "fk", []uint64{102, 100, 100, 77})
	hDim := harden(t, dimKey, an.MustNew(32417, 32))
	hFK := harden(t, fk, an.MustNew(881, 32))
	o := &Opts{Detect: true, Log: NewErrorLog()}
	ht, err := HashBuild(hDim, &Sel{Pos: []uint64{0, 1, 2}}, o)
	if err != nil {
		t.Fatal(err)
	}
	probeSel, matches, err := HashProbe(hFK, ht, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(probeSel.Pos, []uint64{0, 1, 2}) {
		t.Fatalf("mixed-A probe %v", probeSel.Pos)
	}
	if !reflect.DeepEqual(matches, []uint32{2, 0, 0}) {
		t.Fatalf("mixed-A matches %v", matches)
	}
}

func TestHashProbeDetectsCorruptedFK(t *testing.T) {
	dimKey := intColumn(t, "d_key", []uint64{100, 101, 102})
	fk := intColumn(t, "fk", []uint64{100, 101, 102})
	hFK := harden(t, fk, code32)
	ht, err := HashBuild(dimKey, &Sel{Pos: []uint64{0, 1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hFK.Corrupt(1, 1<<13)
	log := NewErrorLog()
	probeSel, _, err := HashProbe(hFK, ht, nil, &Opts{Detect: true, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if log.Count() != 1 {
		t.Fatalf("corrupted FK not detected (%d)", log.Count())
	}
	if !reflect.DeepEqual(probeSel.Pos, []uint64{0, 2}) {
		t.Fatalf("probe positions %v", probeSel.Pos)
	}
	// Without detection the row is silently dropped - the Late caveat.
	log.Reset()
	probeSel, _, err = HashProbe(hFK, ht, nil, &Opts{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if log.Count() != 0 || len(probeSel.Pos) != 2 {
		t.Fatalf("late probe: log=%d sel=%v", log.Count(), probeSel.Pos)
	}
}

func TestGroupByAndSumGrouped(t *testing.T) {
	year := &Vec{Name: "year", Vals: []uint64{1992, 1993, 1992, 1993, 1992}}
	nation := &Vec{Name: "nation", Vals: []uint64{1, 1, 2, 1, 1}}
	gids, groups, err := GroupBy([]*Vec{year, nation}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("%d groups, want 3", len(groups))
	}
	if !reflect.DeepEqual(gids, []uint32{0, 1, 2, 1, 0}) {
		t.Fatalf("gids %v", gids)
	}
	rev := &Vec{Name: "rev", Vals: []uint64{10, 20, 30, 40, 50}}
	sums, err := SumGrouped(rev, gids, len(groups), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sums.Vals, []uint64{60, 60, 30}) {
		t.Fatalf("sums %v", sums.Vals)
	}
	res, err := NewResult(groups, sums, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 3 || res.Keys[0][0] != 1992 || res.Keys[0][1] != 1 || res.Aggs[0] != 60 {
		t.Fatalf("result %+v", res)
	}
}

func TestGroupBySumHardened(t *testing.T) {
	code := an.MustNew(63877, 16)
	mk := func(name string, vals []uint64) *Vec {
		out := &Vec{Name: name, Vals: make([]uint64, len(vals)), Code: code}
		for i, v := range vals {
			out.Vals[i] = code.Encode(v)
		}
		return out
	}
	year := mk("year", []uint64{1992, 1993, 1992})
	rev := mk("rev", []uint64{100, 200, 300})
	log := NewErrorLog()
	o := &Opts{Detect: true, Log: log}
	gids, groups, err := GroupBy([]*Vec{year}, o)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := SumGrouped(rev, gids, len(groups), o)
	if err != nil {
		t.Fatal(err)
	}
	if sums.Code == nil || sums.Code.A() != code.A() || sums.Code.DataBits() != 48 {
		t.Fatalf("accumulator code %v", sums.Code)
	}
	if sums.Value(0) != 400 || sums.Value(1) != 200 {
		t.Fatalf("hardened sums decode to %d,%d", sums.Value(0), sums.Value(1))
	}
	if log.Count() != 0 {
		t.Fatal("clean grouped sum logged errors")
	}
	// Corrupt a group key: the row is skipped and logged.
	year.Vals[2] ^= 1 << 8
	log.Reset()
	gids, groups, err = GroupBy([]*Vec{year}, o)
	if err != nil {
		t.Fatal(err)
	}
	if log.Count() != 1 {
		t.Fatalf("corrupted group key not logged (%d)", log.Count())
	}
	if gids[2] != ^uint32(0) {
		t.Fatal("corrupted row must have sentinel gid")
	}
	sums, err = SumGrouped(rev, gids, len(groups), o)
	if err != nil {
		t.Fatal(err)
	}
	if sums.Value(0) != 100 {
		t.Fatalf("sum after skip = %d", sums.Value(0))
	}
}

func TestGroupByValidation(t *testing.T) {
	v := &Vec{Name: "v", Vals: []uint64{1}}
	if _, _, err := GroupBy(nil, nil); err == nil {
		t.Error("no keys must error")
	}
	if _, _, err := GroupBy([]*Vec{v, v, v, v, v}, nil); err == nil {
		t.Error("five keys must error")
	}
	w := &Vec{Name: "w", Vals: []uint64{1, 2}}
	if _, _, err := GroupBy([]*Vec{v, w}, nil); err == nil {
		t.Error("unequal lengths must error")
	}
	// Components wider than 16 bits are packed with the width their
	// domain needs; only a combination that cannot fit one 64-bit packed
	// key is refused.
	big := &Vec{Name: "big", Vals: []uint64{1 << 20}}
	if _, _, err := GroupBy([]*Vec{big}, nil); err != nil {
		t.Errorf("20-bit key component must be packable, got %v", err)
	}
	huge := &Vec{Name: "huge", Vals: []uint64{1 << 60}}
	if _, _, err := GroupBy([]*Vec{huge, v}, nil); err == nil {
		t.Error("components beyond 64 packed bits must error")
	}
}

func TestSumProduct(t *testing.T) {
	price := &Vec{Name: "p", Vals: []uint64{100, 200, 300}}
	disc := &Vec{Name: "d", Vals: []uint64{1, 2, 3}}
	res, err := SumProduct(price, disc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Vals[0] != 100+400+900 {
		t.Fatalf("plain sum-product %d", res.Vals[0])
	}
	// Hardened with two different As.
	cp := an.MustNew(881, 32)
	cd := an.MustNew(233, 8)
	hp := &Vec{Name: "p", Vals: []uint64{cp.Encode(100), cp.Encode(200), cp.Encode(300)}, Code: cp}
	hd := &Vec{Name: "d", Vals: []uint64{cd.Encode(1), cd.Encode(2), cd.Encode(3)}, Code: cd}
	log := NewErrorLog()
	resH, err := SumProduct(hp, hd, &Opts{Detect: true, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if resH.Value(0) != 1400 {
		t.Fatalf("hardened sum-product decodes to %d", resH.Value(0))
	}
	if log.Count() != 0 {
		t.Fatal("clean sum-product logged errors")
	}
	// Corrupt one operand: logged and excluded.
	hd.Vals[1] ^= 1 << 2
	log.Reset()
	resH, err = SumProduct(hp, hd, &Opts{Detect: true, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if log.Count() != 1 || resH.Value(0) != 1000 {
		t.Fatalf("corrupted operand: log=%d sum=%d", log.Count(), resH.Value(0))
	}
	// Mixed plain/hardened is rejected.
	if _, err := SumProduct(hp, disc, nil); err == nil {
		t.Error("mixed sum-product must error")
	}
	if _, err := SumProduct(price, &Vec{Name: "x", Vals: []uint64{1}}, nil); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestSumDiffGrouped(t *testing.T) {
	code := an.MustNew(881, 32)
	rev := &Vec{Name: "rev", Vals: []uint64{code.Encode(500), code.Encode(700)}, Code: code}
	cost := &Vec{Name: "cost", Vals: []uint64{code.Encode(200), code.Encode(300)}, Code: code}
	gids := []uint32{0, 0}
	res, err := SumDiffGrouped(rev, cost, gids, 1, &Opts{Detect: true, Log: NewErrorLog()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value(0) != 700 {
		t.Fatalf("profit %d", res.Value(0))
	}
	// Different As renormalize (an.DiffFactor): adaptive hardening may
	// have escalated one side's code while its partner kept the old A.
	other := an.MustNew(32417, 32)
	cost2 := &Vec{Name: "c2", Vals: []uint64{other.Encode(200), other.Encode(300)}, Code: other}
	mixed, err := SumDiffGrouped(rev, cost2, gids, 1, &Opts{Detect: true, Log: NewErrorLog()})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Value(0) != 700 {
		t.Fatalf("mixed-A profit %d", mixed.Value(0))
	}
	// Per-side detection is unchanged: a flip in the re-encoded operand
	// is logged and its row excluded.
	log := NewErrorLog()
	cost2.Vals[1] ^= 1 << 4
	mixed, err = SumDiffGrouped(rev, cost2, gids, 1, &Opts{Detect: true, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if log.Count() != 1 || mixed.Value(0) != 300 {
		t.Fatalf("corrupted mixed-A operand: log=%d profit=%d", log.Count(), mixed.Value(0))
	}
	if _, err := SumDiffGrouped(rev, cost, []uint32{0}, 1, nil); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestSumTotalComputationalErrorCheck(t *testing.T) {
	// A flip during accumulation leaves a non-multiple of A; the final
	// domain check catches it (R1-iii). Simulate by corrupting the sum.
	code := an.MustNew(63877, 16)
	vals := &Vec{Name: "v", Vals: []uint64{code.Encode(7), code.Encode(9)}, Code: code}
	sum, err := SumTotal(vals, &Opts{Detect: true, Log: NewErrorLog()})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Value(0) != 16 {
		t.Fatalf("sum %d", sum.Value(0))
	}
	corrupted := sum.Vals[0] ^ 1<<17
	if _, ok := sum.Code.Check(corrupted); ok {
		t.Fatal("corrupted accumulator must be detectable")
	}
}

// TestDifferentialAggregates holds the four materializing sums to one
// row-at-a-time oracle under both runners - one whole-input morsel and
// 7-row morsels - over plain vectors, hardened words summed without
// checks (the Late-style input) and hardened words with detection
// (Continuous), each input with one flipped word per vector. Result
// words, output name and code, and the error log (entries and their
// order) must match the oracle; the Continuous sums must decode to the
// sums of the clean rows. A group id out of range must fail both
// runners with the same error and the same log.
func TestDifferentialAggregates(t *testing.T) {
	const n, numGroups, flipA, flipB = 100, 5, 23, 61
	ca, cb := code32, an.MustNew(881, 32)
	plainA, plainB := make([]uint64, n), make([]uint64, n)
	gids := make([]uint32, n)
	for i := range gids {
		plainA[i], plainB[i] = uint64(1000+i*37%500), uint64(i%11)
		gids[i] = uint32(i % numGroups)
	}
	gids[17] = ^uint32(0) // a corrupted group key: the row is skipped
	vecs := func(hardened bool) (a, b *Vec) {
		a = &Vec{Name: "a", Vals: append([]uint64(nil), plainA...)}
		b = &Vec{Name: "b", Vals: append([]uint64(nil), plainB...)}
		if hardened {
			a.Code, b.Code = ca, cb
			for i := range a.Vals {
				a.Vals[i], b.Vals[i] = ca.Encode(plainA[i]), cb.Encode(plainB[i])
			}
		}
		a.Vals[flipA] ^= 1 << 3
		b.Vals[flipB] ^= 1 << 2
		return a, b
	}
	// combine is the word one row adds: a, a·b·k or a-b·k.
	combine := func(op byte, a, b, k uint64) uint64 {
		switch op {
		case '*':
			return a * b * k
		case '-':
			return a - b*k
		}
		return a
	}
	sums := []struct {
		name    string
		op      byte
		grouped bool
		run     func(a, b *Vec, gids []uint32, o *Opts) (*Vec, error)
	}{
		{"sum(a)", 'a', true, func(a, _ *Vec, gids []uint32, o *Opts) (*Vec, error) { return SumGrouped(a, gids, numGroups, o) }},
		{"sum(a)", 'a', false, func(a, _ *Vec, _ []uint32, o *Opts) (*Vec, error) { return SumTotal(a, o) }},
		{"sum(a*b)", '*', false, func(a, b *Vec, _ []uint32, o *Opts) (*Vec, error) { return SumProduct(a, b, o) }},
		{"sum(a-b)", '-', true, func(a, b *Vec, gids []uint32, o *Opts) (*Vec, error) {
			return SumDiffGrouped(a, b, gids, numGroups, o)
		}},
	}
	runners := map[string]Parallel{"whole": nil, "morsels7": serialMorsels{workers: 4, morsel: 7}}
	for _, mode := range []struct {
		name             string
		hardened, detect bool
	}{{"plain", false, false}, {"late", true, false}, {"continuous", true, true}} {
		a, b := vecs(mode.hardened)
		for _, s := range sums {
			k := uint64(1)
			var wantCode *an.Code
			if mode.hardened {
				wantCode = an.MustNew(ca.A(), wideSumBits)
				if s.op == '*' {
					k = an.InverseMod2N(cb.A(), 64)
				} else {
					k = an.DiffFactor(ca, cb)
				}
			}
			groups := 1
			if s.grouped {
				groups = numGroups
			}
			want, clean := make([]uint64, groups), make([]uint64, groups)
			wantLog := NewErrorLog()
			for i := 0; i < n; i++ {
				g := 0
				if s.grouped {
					if gids[i] == ^uint32(0) {
						continue
					}
					g = int(gids[i])
				}
				if mode.detect {
					okA := ca.IsValid(a.Vals[i])
					okB := s.op == 'a' || cb.IsValid(b.Vals[i])
					if !okA {
						wantLog.Record("vec:a", uint64(i))
					}
					if !okB {
						wantLog.Record("vec:b", uint64(i))
					}
					if !okA || !okB {
						continue
					}
					clean[g] += combine(s.op, plainA[i], plainB[i], 1)
				}
				want[g] += combine(s.op, a.Vals[i], b.Vals[i], k)
			}
			if mode.detect && wantLog.Count() == 0 {
				t.Fatalf("%s: the flipped words went unseen; the fixture is vacuous", s.name)
			}
			for rname, par := range runners {
				id := fmt.Sprintf("%s/%s/%s", mode.name, s.name, rname)
				log := NewErrorLog()
				out, err := s.run(a, b, gids, &Opts{Detect: mode.detect, Log: log, Par: par})
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				if out.Name != s.name || !reflect.DeepEqual(out.Code, wantCode) {
					t.Fatalf("%s: output %q under %v, want %q under %v", id, out.Name, out.Code, s.name, wantCode)
				}
				if !reflect.DeepEqual(out.Vals, want) {
					t.Fatalf("%s: sums %v, oracle %v", id, out.Vals, want)
				}
				if !log.Equal(wantLog) {
					t.Fatalf("%s: log %v, oracle %v", id, log.Entries(), wantLog.Entries())
				}
				for g := range clean {
					if mode.detect && out.Value(g) != clean[g] {
						t.Fatalf("%s: group %d decodes to %d, clean rows sum to %d", id, g, out.Value(g), clean[g])
					}
				}
			}
		}

		// A group id out of range stops both runners at that row.
		bad := append([]uint32(nil), gids...)
		bad[50] = numGroups // the first id past the range
		for _, s := range sums {
			if !s.grouped {
				continue
			}
			var errs []string
			var logs []*ErrorLog
			for _, par := range []Parallel{nil, serialMorsels{workers: 4, morsel: 7}} {
				log := NewErrorLog()
				_, err := s.run(a, b, bad, &Opts{Detect: mode.detect, Log: log, Par: par})
				if err == nil {
					t.Fatalf("%s/%s: group id %d of %d accepted", mode.name, s.name, bad[50], numGroups)
				}
				errs, logs = append(errs, err.Error()), append(logs, log)
			}
			if errs[0] != errs[1] || !logs[0].Equal(logs[1]) {
				t.Fatalf("%s/%s: runners disagree on a bad group id: %q %v vs %q %v",
					mode.name, s.name, errs[0], logs[0].Entries(), errs[1], logs[1].Entries())
			}
		}
	}
}

func TestVecSoftenAndReencode(t *testing.T) {
	code := an.MustNew(233, 8)
	v := &Vec{Name: "v", Vals: []uint64{code.Encode(5), code.Encode(250)}, Code: code}
	log := NewErrorLog()
	s := v.Soften(true, log)
	if s.Code != nil || !reflect.DeepEqual(s.Vals, []uint64{5, 250}) {
		t.Fatalf("soften: %+v", s)
	}
	// Softening a plain vector is the identity.
	if s.Soften(true, log) != s {
		t.Fatal("plain soften must be identity")
	}
	next := an.MustNew(29, 8)
	r, err := v.Reencode(next)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value(0) != 5 || r.Value(1) != 250 || r.Code != next {
		t.Fatalf("reencode: %+v", r)
	}
	if _, err := s.Reencode(next); err == nil {
		t.Error("reencoding a plain vector must error")
	}
	// A word the current code rejects stays rejected under next - also a
	// flip above next's 13 code bits, which the multiply alone erases.
	bad := &Vec{Name: "v", Vals: []uint64{code.Encode(5) ^ 1<<14, code.Encode(7)}, Code: code}
	if r, err = bad.Reencode(next); err != nil {
		t.Fatal(err)
	}
	if _, ok := next.Check(r.Vals[0]); ok || r.Value(1) != 7 {
		t.Fatalf("reencode of a corrupted word: %#x is valid under A=%d (or its neighbor was lost: %d)", r.Vals[0], next.A(), r.Value(1))
	}
	// Corruption is carried through softening and logged.
	v.Vals[0] ^= 1 << 4
	log.Reset()
	v.Soften(true, log)
	if log.Count() != 1 {
		t.Fatalf("soften logged %d", log.Count())
	}
}

func TestResultSortEqualVote(t *testing.T) {
	r1 := &Result{Keys: [][]uint64{{2, 1}, {1, 5}, {1, 2}}, Aggs: []uint64{30, 20, 10}}
	r1.Sort()
	if r1.Keys[0][0] != 1 || r1.Keys[0][1] != 2 || r1.Aggs[0] != 10 {
		t.Fatalf("sort: %+v", r1)
	}
	r2 := &Result{Keys: [][]uint64{{1, 2}, {1, 5}, {2, 1}}, Aggs: []uint64{10, 20, 30}}
	if !r1.Equal(r2) {
		t.Fatal("equal results reported unequal")
	}
	if err := Vote(r1, r2); err != nil {
		t.Fatal(err)
	}
	r2.Aggs[1] = 99
	if r1.Equal(r2) {
		t.Fatal("diverging results reported equal")
	}
	if err := Vote(r1, r2); err == nil {
		t.Fatal("voter must flag divergence")
	}
	r3 := &Result{Keys: [][]uint64{{1}}, Aggs: []uint64{1}}
	if r1.Equal(r3) {
		t.Fatal("row-count mismatch reported equal")
	}
}

func TestErrorLogHardening(t *testing.T) {
	log := NewErrorLog()
	log.Record("col", 12345)
	if log.Count() != 1 {
		t.Fatal("count")
	}
	// The stored position is hardened; corrupt it and decoding fails.
	log.Entries()[0].HardenedPos ^= 1 << 3
	log.entries[0].HardenedPos ^= 1 << 3 // restore via direct access
	pos, err := log.Positions("col")
	if err != nil || len(pos) != 1 || pos[0] != 12345 {
		t.Fatalf("positions: %v, %v", pos, err)
	}
	log.entries[0].HardenedPos ^= 1 << 3
	if _, err := log.Positions("col"); err == nil {
		t.Fatal("corrupted error vector must be reported")
	}
	if log.Err() == nil {
		t.Fatal("non-empty log must produce an error")
	}
	log.Reset()
	if log.Err() != nil || log.Count() != 0 {
		t.Fatal("reset")
	}
}
