package ops

import (
	"reflect"
	"testing"

	"ahead/internal/an"
	"ahead/internal/hashmap"
	"ahead/internal/storage"
)

func buildTestHT(keys ...uint64) *hashmap.U64 {
	ht := hashmap.New(len(keys) * 2)
	for i, k := range keys {
		ht.Put(k, uint32(i))
	}
	return ht
}

// q1Fixture is a small Q1-shaped fact table in plain and hardened form.
type q1Fixture struct {
	disc, qty, od, price     *storage.Column // plain
	discH, qtyH, odH, priceH *storage.Column // hardened
	ht                       *hashmap.U64
	n                        int
}

func newQ1Fixture(t *testing.T, n int) *q1Fixture {
	t.Helper()
	disc := make([]uint64, n)
	qty := make([]uint64, n)
	od := make([]uint64, n)
	price := make([]uint64, n)
	for i := 0; i < n; i++ {
		disc[i] = uint64(i % 11)
		qty[i] = uint64((i * 7) % 50)
		od[i] = uint64(100 + i%6)
		price[i] = uint64(1000 + (i*13)%500)
	}
	f := &q1Fixture{n: n, ht: buildTestHT(100, 101, 102)}
	f.disc = tinyColumn(t, "lo_discount", disc)
	f.qty = tinyColumn(t, "lo_quantity", qty)
	f.od = intColumn(t, "lo_orderdate", od)
	f.price = intColumn(t, "lo_extendedprice", price)
	f.discH = harden(t, f.disc, code8)
	f.qtyH = harden(t, f.qty, code8)
	f.odH = harden(t, f.od, code32)
	f.priceH = harden(t, f.price, code32)
	return f
}

// materializedQ1 runs the operator-at-a-time pipeline the fused kernel
// replaces, with the given columns and the mode behaviour o encodes.
// late applies the PreAggregate Δ (soften with verification) before the
// final aggregation, mirroring exec.Query.PreAggregate under LateOnetime;
// under o's Reencode bit the gathered vectors are re-encoded to their
// next-smaller A, mirroring exec.Query.Reencode.
func materializedQ1(t *testing.T, discC, qtyC, odC, priceC *storage.Column, ht *hashmap.U64, o *Opts, late bool, log *ErrorLog) *Vec {
	t.Helper()
	sel, err := Filter(discC, 1, 3, o)
	if err != nil {
		t.Fatal(err)
	}
	sel, err = FilterSel(qtyC, 0, 24, sel, o)
	if err != nil {
		t.Fatal(err)
	}
	sel, err = SemiJoin(odC, ht, sel, o)
	if err != nil {
		t.Fatal(err)
	}
	price, err := Gather(priceC, sel, o)
	if err != nil {
		t.Fatal(err)
	}
	disc, err := Gather(discC, sel, o)
	if err != nil {
		t.Fatal(err)
	}
	if late {
		price = price.Soften(true, log)
		disc = disc.Soften(true, log)
	}
	if o.reencode() {
		for _, v := range []**Vec{&price, &disc} {
			next, ok := an.NextSmaller((*v).Code)
			if !ok {
				t.Fatalf("%s: no smaller A to re-encode to", (*v).Name)
			}
			if *v, err = (*v).Reencode(next); err != nil {
				t.Fatal(err)
			}
		}
	}
	rev, err := SumProduct(price, disc, o)
	if err != nil {
		t.Fatal(err)
	}
	return rev
}

func fusedQ1(t *testing.T, f *q1Fixture, discC, qtyC, odC, priceC *storage.Column, o *Opts) *Vec {
	t.Helper()
	rev, err := FusedFilterSemiSumProduct([]RangePred{
		{Col: discC, Lo: 1, Hi: 3},
		{Col: qtyC, Lo: 0, Hi: 24},
	}, odC, f.ht, priceC, discC, o)
	if err != nil {
		t.Fatal(err)
	}
	return rev
}

func TestFusedQ1MatchesMaterializedPlain(t *testing.T) {
	f := newQ1Fixture(t, 500)
	o := &Opts{}
	want := materializedQ1(t, f.disc, f.qty, f.od, f.price, f.ht, o, false, nil)
	got := fusedQ1(t, f, f.disc, f.qty, f.od, f.price, o)
	if !reflect.DeepEqual(got.Vals, want.Vals) {
		t.Fatalf("fused %v != materialized %v", got.Vals, want.Vals)
	}
	if got.Code != nil {
		t.Fatal("plain fused sum must stay plain")
	}
	if want.Vals[0] == 0 {
		t.Fatal("fixture selects nothing; test is vacuous")
	}
}

func TestFusedQ1MatchesMaterializedLate(t *testing.T) {
	f := newQ1Fixture(t, 500)
	wlog, flog := NewErrorLog(), NewErrorLog()
	want := materializedQ1(t, f.discH, f.qtyH, f.odH, f.priceH, f.ht, &Opts{Log: wlog}, true, wlog)
	got := fusedQ1(t, f, f.discH, f.qtyH, f.odH, f.priceH, &Opts{Log: flog})
	if !reflect.DeepEqual(got.Vals, want.Vals) {
		t.Fatalf("fused %v != materialized %v", got.Vals, want.Vals)
	}
	if got.Code != nil || want.Code != nil {
		t.Fatal("late sums decode to plain")
	}
	if wlog.Count() != 0 || flog.Count() != 0 {
		t.Fatalf("clean data logged errors: %d/%d", wlog.Count(), flog.Count())
	}
}

func TestFusedQ1MatchesMaterializedContinuous(t *testing.T) {
	f := newQ1Fixture(t, 500)
	wlog, flog := NewErrorLog(), NewErrorLog()
	wo := &Opts{Detect: true, HardenIDs: true, Log: wlog}
	fo := &Opts{Detect: true, HardenIDs: true, Log: flog}
	want := materializedQ1(t, f.discH, f.qtyH, f.odH, f.priceH, f.ht, wo, false, nil)
	got := fusedQ1(t, f, f.discH, f.qtyH, f.odH, f.priceH, fo)
	if !reflect.DeepEqual(got.Vals, want.Vals) {
		t.Fatalf("fused %v != materialized %v", got.Vals, want.Vals)
	}
	if got.Code == nil || got.Code.A() != want.Code.A() {
		t.Fatal("continuous fused sum must carry the widened accumulator code")
	}
	if wlog.Count() != 0 || flog.Count() != 0 {
		t.Fatalf("clean data logged errors: %d/%d", wlog.Count(), flog.Count())
	}
}

// TestFusedQ1ContinuousDetection corrupts one value in every touched
// column and checks the fused pass drops the same rows from the sum and
// reports the same per-column positions as the materializing pipeline.
func TestFusedQ1ContinuousDetection(t *testing.T) {
	mk := func() *q1Fixture {
		f := newQ1Fixture(t, 500)
		// Row 12 passes both predicates (disc 1, qty 34? -> recompute):
		// pick rows by construction instead: disc[i]=i%11, qty[i]=(7i)%50,
		// od[i]=100+i%6. Row 45: disc 1, qty 15, od 103 (no ht hit).
		// Row 1: disc 1, qty 7, od 101 - survives everything.
		f.discH.Corrupt(1, 1<<2)   // corrupt a surviving row's discount
		f.qtyH.Corrupt(12, 1<<3)   // corrupt a quantity
		f.odH.Corrupt(23, 1<<5)    // corrupt an orderdate
		f.priceH.Corrupt(34, 1<<7) // corrupt a price
		return f
	}

	wlog, flog := NewErrorLog(), NewErrorLog()
	fm := mk()
	want := materializedQ1(t, fm.discH, fm.qtyH, fm.odH, fm.priceH, fm.ht, &Opts{Detect: true, HardenIDs: true, Log: wlog}, false, nil)
	ff := mk()
	got := fusedQ1(t, ff, ff.discH, ff.qtyH, ff.odH, ff.priceH, &Opts{Detect: true, HardenIDs: true, Log: flog})

	if !reflect.DeepEqual(got.Vals, want.Vals) {
		t.Fatalf("fused %v != materialized %v under corruption", got.Vals, want.Vals)
	}
	for _, col := range []string{"lo_discount", "lo_quantity", "lo_orderdate", "lo_extendedprice"} {
		wantPos, err := wlog.Positions(col)
		if err != nil {
			t.Fatal(err)
		}
		gotPos, err := flog.Positions(col)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotPos, wantPos) {
			t.Fatalf("%s: fused positions %v != materialized %v", col, gotPos, wantPos)
		}
	}
	if n, _ := flog.Positions("lo_discount"); len(n) == 0 {
		t.Fatal("corrupted discount was not detected; test is vacuous")
	}
}

// TestFusedQ1SerialVsParallel asserts the morsel invariant for the fused
// kernel: identical sums and byte-identical logs for any morsel split.
func TestFusedQ1SerialVsParallel(t *testing.T) {
	for _, detect := range []bool{false, true} {
		f := newQ1Fixture(t, 3000)
		f.discH.Corrupt(7, 1<<2)
		f.priceH.Corrupt(100, 1<<6)
		slog := NewErrorLog()
		serial := fusedQ1(t, f, f.discH, f.qtyH, f.odH, f.priceH, &Opts{Detect: detect, HardenIDs: detect, Log: slog})
		for _, morsel := range []int{128, 999, 2048} {
			plog := NewErrorLog()
			po := &Opts{Detect: detect, HardenIDs: detect, Log: plog, Par: serialMorsels{workers: 4, morsel: morsel}}
			par := fusedQ1(t, f, f.discH, f.qtyH, f.odH, f.priceH, po)
			if !reflect.DeepEqual(par.Vals, serial.Vals) {
				t.Fatalf("detect=%v morsel=%d: parallel %v != serial %v", detect, morsel, par.Vals, serial.Vals)
			}
			if !plog.Equal(slog) {
				t.Fatalf("detect=%v morsel=%d: parallel log diverges from serial", detect, morsel)
			}
		}
	}
}

func TestFusedEmptyPredicate(t *testing.T) {
	f := newQ1Fixture(t, 100)
	rev, err := FusedFilterSemiSumProduct([]RangePred{
		{Col: f.disc, Lo: 5, Hi: 4}, // inverted: statically empty
	}, f.od, f.ht, f.price, f.disc, &Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if rev.Vals[0] != 0 {
		t.Fatalf("empty predicate must sum to 0, got %d", rev.Vals[0])
	}
}

// TestFusedQ1BitmapBlocks runs the Q1 pass over blocks whose first
// predicate keeps more than bitmapSelThreshold rows - the block turns
// into a bitmap, the second predicate refines it in place, and the date
// semijoin thins it back to a list - with faults planted in surviving
// rows of a predicate column, the FK and both factors. Under Late,
// Continuous and Reencoding the pass must return the materializing
// chain's result, log the same base-column positions (and under Late
// as many vec: entries), and log byte-identically serial and pooled.
func TestFusedQ1BitmapBlocks(t *testing.T) {
	const n = 2*fusedBlockRows + 333 // three blocks, the last ragged
	// The fixture's data by construction (newQ1Fixture): disc i%11,
	// qty 7i%50, orderdate 100+i%6 against build keys 100..102.
	first, second, probed := 0, 0, 0
	var survivors []int
	for i := 0; i < n; i++ {
		if d := i % 11; d < 1 || d > 3 {
			continue
		}
		if i < fusedBlockRows {
			first++
		}
		if (i*7)%50 > 24 {
			continue
		}
		if i < fusedBlockRows {
			second++
		}
		if i%6 > 2 {
			continue
		}
		if i < fusedBlockRows {
			probed++
		}
		survivors = append(survivors, i)
	}
	if first < bitmapSelThreshold || second < bitmapSelThreshold || probed >= bitmapSelThreshold {
		t.Fatalf("fixture vacuous: block 0 keeps %d, %d, %d rows; want a bitmap through both predicates and a list after the probe",
			first, second, probed)
	}
	// Surviving rows in every block, the ragged one included.
	rows := []int{survivors[3], survivors[len(survivors)/2], survivors[len(survivors)-2]}
	for _, tc := range []struct {
		name    string
		corrupt func(f *q1Fixture)
	}{
		{"predicate", func(f *q1Fixture) {
			// The top code bit: Late's raw compare rejects the word too.
			for _, r := range rows {
				f.qtyH.Corrupt(r, 1<<(f.qtyH.Code().CodeBits()-1))
			}
		}},
		{"fk", func(f *q1Fixture) {
			for _, r := range rows {
				f.odH.Corrupt(r, 1<<5)
			}
		}},
		{"factors", func(f *q1Fixture) {
			for _, r := range rows {
				f.priceH.Corrupt(r, 1<<7)
			}
			f.discH.Corrupt(rows[1]+66, 1<<2) // the next surviving row
		}},
	} {
		clean := newQ1Fixture(t, n)
		f := newQ1Fixture(t, n)
		tc.corrupt(f)
		for _, mode := range []struct {
			name string
			opts func(log *ErrorLog) *Opts
		}{
			{"late", func(log *ErrorLog) *Opts { return &Opts{Log: log} }},
			{"continuous", func(log *ErrorLog) *Opts { return &Opts{Detect: true, HardenIDs: true, Log: log} }},
			{"reencoding", reencodeOpts},
		} {
			id := tc.name + "/" + mode.name
			late := mode.name == "late"
			wlog, flog := NewErrorLog(), NewErrorLog()
			want := materializedQ1(t, f.discH, f.qtyH, f.odH, f.priceH, f.ht, mode.opts(wlog), late, wlog)
			got := fusedQ1(t, f, f.discH, f.qtyH, f.odH, f.priceH, mode.opts(flog))
			if !reflect.DeepEqual(got.Vals, want.Vals) || (got.Code == nil) != (want.Code == nil) ||
				got.Code != nil && got.Code.A() != want.Code.A() {
				t.Fatalf("%s: fused %v (%v) != materialized %v (%v)", id, got.Vals, got.Code, want.Vals, want.Code)
			}
			ref := fusedQ1(t, clean, clean.discH, clean.qtyH, clean.odH, clean.priceH, mode.opts(nil))
			if flog.Count() == 0 && reflect.DeepEqual(got.Vals, ref.Vals) {
				t.Fatalf("%s: the faults neither logged nor changed the sum; test is vacuous", id)
			}
			fbase, fvec := flog.PartitionColumns()
			wbase, wvec := wlog.PartitionColumns()
			if !reflect.DeepEqual(fbase, wbase) {
				t.Fatalf("%s: fused logged base columns %v, materialized %v", id, fbase, wbase)
			}
			for _, col := range fbase {
				fp, _ := flog.Positions(col)
				wp, _ := wlog.Positions(col)
				if !reflect.DeepEqual(fp, wp) {
					t.Fatalf("%s: %s fused positions %v != materialized %v", id, col, fp, wp)
				}
			}
			if late {
				// The Δ logs vec: entries at the fact row fused and at the
				// vector index materialized: the counts agree.
				if !reflect.DeepEqual(fvec, wvec) {
					t.Fatalf("%s: fused logged vec columns %v, materialized %v", id, fvec, wvec)
				}
				for _, col := range fvec {
					fp, _ := flog.Positions(col)
					wp, _ := wlog.Positions(col)
					if len(fp) != len(wp) {
						t.Fatalf("%s: %s fused logged %d rows, materialized %d", id, col, len(fp), len(wp))
					}
				}
			} else if len(fvec) != 0 {
				t.Fatalf("%s: fused pass logged vec: entries %v", id, fvec)
			}
			for _, morsel := range []int{999, fusedBlockRows + 7} {
				plog := NewErrorLog()
				po := mode.opts(plog)
				po.Par = serialMorsels{workers: 4, morsel: morsel}
				par := fusedQ1(t, f, f.discH, f.qtyH, f.odH, f.priceH, po)
				if !reflect.DeepEqual(par.Vals, got.Vals) || !plog.Equal(flog) {
					t.Fatalf("%s morsel=%d: pooled pass diverges from serial", id, morsel)
				}
			}
		}
	}
}
