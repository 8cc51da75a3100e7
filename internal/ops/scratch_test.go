package ops

import (
	"testing"
)

// serialMorsels is a deterministic Parallel stub: it runs the morsels
// serially in morsel order, which exercises the exact merge paths of
// runMorsels without scheduler nondeterminism - the right harness for
// allocation accounting.
type serialMorsels struct{ workers, morsel int }

func (s serialMorsels) Workers() int    { return s.workers }
func (s serialMorsels) MorselSize() int { return s.morsel }
func (s serialMorsels) ForEach(total int, fn func(m, start, end int)) {
	for m, start := 0, 0; start < total; m, start = m+1, start+s.morsel {
		end := start + s.morsel
		if end > total {
			end = total
		}
		fn(m, start, end)
	}
}

func TestScratchBorrowReleaseRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 1 << 12, 1 << scratchMaxBits, 1<<scratchMaxBits + 1} {
		p := borrowU64(n)
		if len(*p) != 0 {
			t.Fatalf("borrowU64(%d): len %d, want 0", n, len(*p))
		}
		if cap(*p) < n {
			t.Fatalf("borrowU64(%d): cap %d too small", n, cap(*p))
		}
		*p = append(*p, 1, 2, 3)
		releaseU64(p)
	}
	// Zeroed borrows must come back clean even after a dirty release.
	d := borrowU64(64)
	*d = (*d)[:64]
	for i := range *d {
		(*d)[i] = ^uint64(0)
	}
	releaseU64(d)
	z := borrowU64Zeroed(64)
	if len(*z) != 64 {
		t.Fatalf("borrowU64Zeroed: len %d, want 64", len(*z))
	}
	for i, v := range *z {
		if v != 0 {
			t.Fatalf("borrowU64Zeroed: dirty value %d at %d", v, i)
		}
	}
	releaseU64(z)
}

func TestScratchOwnAndConcat(t *testing.T) {
	p := borrowU64(8)
	*p = append(*p, 10, 20, 30)
	owned := concat(u64Classes, []*[]uint64{p})
	if len(owned) != 3 || cap(owned) != 3 {
		t.Fatalf("ownU64: len/cap %d/%d, want 3/3", len(owned), cap(owned))
	}
	if owned[0] != 10 || owned[2] != 30 {
		t.Fatalf("ownU64: wrong contents %v", owned)
	}

	a, b := borrowU64(4), borrowU64(4)
	*a = append(*a, 1, 2)
	*b = append(*b, 3)
	got := concat(u64Classes, []*[]uint64{a, b})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("concatOwned: %v", got)
	}
}

func TestClassForBoundaries(t *testing.T) {
	if c := classFor(u64Classes, 1); c == nil || c.size != 1<<scratchMinBits {
		t.Fatalf("classFor(1) must be the smallest class")
	}
	if c := classFor(u64Classes, 1<<scratchMinBits); c == nil || c.size != 1<<scratchMinBits {
		t.Fatalf("classFor(min) must stay in the smallest class")
	}
	if c := classFor(u64Classes, 1<<scratchMinBits+1); c == nil || c.size != 1<<(scratchMinBits+1) {
		t.Fatalf("classFor(min+1) must round up one class")
	}
	if c := classFor(u64Classes, 1<<scratchMaxBits); c == nil || c.size != 1<<scratchMaxBits {
		t.Fatalf("classFor(max) must be the largest class")
	}
	if c := classFor(u64Classes, 1<<scratchMaxBits+1); c != nil {
		t.Fatalf("classFor above the largest class must be nil")
	}
	if c := classFor(u32Classes, 1); c == nil || c.size != 1<<scratchMinBits {
		t.Fatalf("classFor(u32, 1) must be the smallest class")
	}
}

// TestMorselKernelZeroAllocs asserts the tentpole invariant: one warm
// filter morsel - borrow, scan, release - allocates nothing.
func TestMorselKernelZeroAllocs(t *testing.T) {
	vals := make([]uint64, 4096)
	for i := range vals {
		vals[i] = uint64(i % 64)
	}
	col := tinyColumn(t, "v", vals)
	o := &Opts{}

	f := makeFusedPred(RangePred{Col: col, Lo: 8, Hi: 40}, o)
	run := func() {
		releaseU64(f.scanMorsel(o, nil, 1024, 2048))
	}
	run() // warm the pool
	allocs := testing.AllocsPerRun(200, run)
	if raceEnabled {
		t.Skipf("race instrumentation changes alloc counts (measured %.1f)", allocs)
	}
	if allocs != 0 {
		t.Fatalf("warm filter morsel allocated %.1f times, want 0", allocs)
	}
}

// TestOperatorAllocsIndependentOfMorselCount pins the steady-state
// budget of a whole parallel operator call: the per-call constant (the
// morsel bookkeeping slices and the owned output) does not grow with the
// number of morsels, because every per-morsel buffer and error log is
// pooled.
func TestOperatorAllocsIndependentOfMorselCount(t *testing.T) {
	vals := make([]uint64, 1<<14)
	for i := range vals {
		vals[i] = uint64(i % 64)
	}
	col := tinyColumn(t, "v", vals)

	measure := func(par Parallel) float64 {
		o := &Opts{Par: par}
		run := func() {
			sel, err := Filter(col, 8, 40, o)
			if err != nil {
				t.Fatal(err)
			}
			_ = sel
		}
		run() // warm the pools
		return testing.AllocsPerRun(50, run)
	}
	serial := measure(nil)                                     // one whole-input morsel
	few := measure(serialMorsels{workers: 4, morsel: 1 << 13}) // 2 morsels
	many := measure(serialMorsels{workers: 4, morsel: 1 << 8}) // 64 morsels
	if raceEnabled {
		t.Skipf("race instrumentation changes alloc counts (measured %.1f, %.1f vs %.1f)", serial, few, many)
	}
	// 62 extra morsels may not cost 62 extra allocations: the only
	// allowed growth is the three bookkeeping slices scaling in *size*,
	// not count. Allow a tiny slack for size-class jumps.
	if many > few+4 {
		t.Fatalf("allocs grew with morsel count: %.1f (2 morsels) vs %.1f (64 morsels)", few, many)
	}
	if serial > 16 {
		t.Fatalf("serial Filter call allocated %.1f times, budget 16", serial)
	}
	if many > 16 {
		t.Fatalf("parallel Filter call allocated %.1f times, budget 16", many)
	}
}

// TestFusedKernelZeroAllocs pins the fused passes: after warmup the
// whole fused scan-semijoin-aggregate Q1 pass costs a small constant
// (bookkeeping slices and the one-element output Vec), and the probe
// cascade a constant per morsel (its group table) - neither allocates
// per block or per row, so 8x the rows in the same number of morsels
// costs the same. The hardened fixture under the Reencoding bit pins the
// same for the staging step: its re-encode constants and drop bitmap are
// per call and per morsel, never per block or row.
func TestFusedKernelZeroAllocs(t *testing.T) {
	fixture := func(n int, reencode bool) (q1, cascade func()) {
		disc := make([]uint64, n)
		qty := make([]uint64, n)
		od := make([]uint64, n)
		price := make([]uint64, n)
		for i := 0; i < n; i++ {
			disc[i] = uint64(i % 11)
			qty[i] = uint64(i % 50)
			od[i] = uint64(100 + i%6)
			price[i] = uint64(1000 + i%500)
		}
		discC := tinyColumn(t, "lo_discount", disc)
		qtyC := tinyColumn(t, "lo_quantity", qty)
		odC := intColumn(t, "lo_orderdate", od)
		priceC := intColumn(t, "lo_extendedprice", price)
		ht := buildTestHT(100, 101, 102)
		attr := tinyColumn(t, "d_year", []uint64{92, 93, 94})

		o := &Opts{Par: serialMorsels{workers: 4, morsel: n / 8}}
		if reencode {
			discC, qtyC, attr = harden(t, discC, code8), harden(t, qtyC, code8), harden(t, attr, code8)
			odC, priceC = harden(t, odC, code32), harden(t, priceC, code32)
			o.Detect, o.HardenIDs, o.Reencode, o.Log = true, true, true, NewErrorLog()
		}
		preds := []RangePred{{Col: discC, Lo: 1, Hi: 3}, {Col: qtyC, Lo: 0, Hi: 24}}
		joins := []FusedJoin{{FK: odC, HT: ht, Attr: attr}}
		return func() {
				if _, err := FusedFilterSemiSumProduct(preds, odC, ht, priceC, discC, o); err != nil {
					t.Fatal(err)
				}
			}, func() {
				if _, _, err := FusedProbeGroupSum(preds[:1], joins, priceC, o); err != nil {
					t.Fatal(err)
				}
			}
	}
	measure := func(run func()) float64 {
		run()
		return testing.AllocsPerRun(50, run)
	}
	for _, reencode := range []bool{false, true} {
		q1, cascade := fixture(1<<13, reencode)
		q1Big, cascadeBig := fixture(1<<16, reencode)
		q1Allocs, cascadeAllocs := measure(q1), measure(cascade)
		q1BigAllocs, cascadeBigAllocs := measure(q1Big), measure(cascadeBig)
		if raceEnabled {
			t.Skipf("race instrumentation changes alloc counts (measured %.1f, %.1f)", q1Allocs, cascadeAllocs)
		}
		t.Logf("reencode=%v: Q1 %.1f -> %.1f, cascade %.1f -> %.1f", reencode, q1Allocs, q1BigAllocs, cascadeAllocs, cascadeBigAllocs)
		if q1Allocs > 16 {
			t.Fatalf("reencode=%v: fused Q1 pass allocated %.1f times, budget 16", reencode, q1Allocs)
		}
		if cascadeAllocs > 8*24 {
			t.Fatalf("reencode=%v: fused cascade allocated %.1f times over 8 morsels, budget 24 per morsel (its group table)", reencode, cascadeAllocs)
		}
		if q1BigAllocs > q1Allocs+2 || cascadeBigAllocs > cascadeAllocs+2 {
			t.Fatalf("reencode=%v: allocations grew with the rows per morsel: Q1 %.1f -> %.1f, cascade %.1f -> %.1f",
				reencode, q1Allocs, q1BigAllocs, cascadeAllocs, cascadeBigAllocs)
		}
	}
}

// TestProbeKernelZeroAllocs pins the typed probe kernels: one warm pass
// of each - probeRange in row order and in selection order, with the
// table and with the dense index; a join of the cascade over a block
// bitmap and over a list, its position step and attribute fetch
// included - borrows, probes and releases without allocating, so a
// parallel probe costs no per-morsel and a fused pass no per-block
// garbage.
func TestProbeKernelZeroAllocs(t *testing.T) {
	vals := make([]uint64, 4096)
	for i := range vals {
		vals[i] = uint64(100 + i%8)
	}
	col := harden(t, intColumn(t, "fk", vals), code32)
	ht := buildTestHT(100, 101, 102, 103)
	attr := harden(t, tinyColumn(t, "attr", []uint64{7, 8, 9, 10}), code8)
	o := &Opts{Detect: true}
	sel := &Sel{Pos: make([]uint64, 2048)}
	for i := range sel.Pos {
		sel.Pos[i] = uint64(2 * i)
	}

	table := &fkProbe{fk: makeFusedCol(col), ht: ht, wantPos: true}
	semi := makeFKProbe(col, ht, false)
	join := fusedJoinCol{fkProbe: makeFKProbe(col, ht, true), attr: makeFusedCol(attr), hasAttr: true}
	defer join.release()
	if semi.keyBits == nil || join.keyPos == nil {
		t.Fatal("dense fixture built no index")
	}
	words, pos := make([]uint64, fusedBlockWords), make([]uint64, 0, fusedBlockRows)
	bp, staged := make([]uint32, fusedBlockRows), make([]uint16, fusedBlockRows)
	drop := make([]uint64, fusedBlockWords)

	rangeRun := func(j *fkProbe, sel *Sel, end int) func() {
		return func() {
			part, err := j.probeRange(sel, o, nil, 1024, end)
			if err != nil {
				t.Fatal(err)
			}
			dropProbePart(part)
		}
	}
	for name, run := range map[string]func(){
		"probeRange/table/rows":      rangeRun(table, nil, 3072),
		"probeRange/table/selection": rangeRun(table, sel, 2000),
		"probeRange/dense/rows":      rangeRun(&semi, nil, 3077),
		"probeRange/dense/selection": rangeRun(&semi, sel, 2000),
		"stage/bitmap": func() {
			fillBitmap(words, fusedBlockRows-3) // the last word ragged
			if n := join.probeBitmap(0, words, bp, nil); n != 2048 {
				t.Fatalf("bitmap stage kept %d rows", n)
			}
			pos = bitmapToList(words, 0, pos[:0])
			if join.resolve(0, pos, bp, drop, nil) {
				t.Fatal("position step marked a row")
			}
			if marked, err := join.fetchAttr(0, pos, bp, staged, drop, true, nil); err != nil || marked {
				t.Fatalf("attribute step marked a row: %v", err)
			}
		},
		"stage/list": func() {
			pos = append(pos[:0], sel.Pos...)
			if pos = join.probeList(0, pos, bp, nil); len(pos) != 1024 {
				t.Fatalf("list stage kept %d rows", len(pos))
			}
			if join.resolve(0, pos, bp, drop, nil) {
				t.Fatal("position step marked a row")
			}
			if marked, err := join.fetchAttr(0, pos, bp, staged, drop, true, nil); err != nil || marked {
				t.Fatalf("attribute step marked a row: %v", err)
			}
		},
	} {
		run() // warm the pools
		allocs := testing.AllocsPerRun(200, run)
		if raceEnabled {
			t.Logf("%s: race instrumentation changes alloc counts (measured %.1f)", name, allocs)
			continue
		}
		if allocs != 0 {
			t.Errorf("%s: warm pass allocated %.1f times, want 0", name, allocs)
		}
	}
}

// TestProbeAllocsIndependentOfMorselCount is the HashProbe twin of
// TestOperatorAllocsIndependentOfMorselCount: splitting the probe into
// 64 morsels instead of 2 must not add allocations beyond the
// bookkeeping slices, because every morsel's probePart is pooled.
func TestProbeAllocsIndependentOfMorselCount(t *testing.T) {
	vals := make([]uint64, 1<<14)
	for i := range vals {
		vals[i] = uint64(100 + i%8)
	}
	col := intColumn(t, "fk", vals)
	ht := buildTestHT(100, 101, 102, 103)

	measure := func(par Parallel) float64 {
		o := &Opts{Par: par}
		run := func() {
			sel, matches, err := HashProbe(col, ht, nil, o)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = sel, matches
		}
		run() // warm the pools
		return testing.AllocsPerRun(50, run)
	}
	serial := measure(nil)                                     // one whole-input morsel
	few := measure(serialMorsels{workers: 4, morsel: 1 << 13}) // 2 morsels
	many := measure(serialMorsels{workers: 4, morsel: 1 << 8}) // 64 morsels
	if raceEnabled {
		t.Skipf("race instrumentation changes alloc counts (measured %.1f, %.1f vs %.1f)", serial, few, many)
	}
	if many > few+4 {
		t.Fatalf("allocs grew with morsel count: %.1f (2 morsels) vs %.1f (64 morsels)", few, many)
	}
	if serial > 16 {
		t.Fatalf("serial HashProbe call allocated %.1f times, budget 16", serial)
	}
	if many > 16 {
		t.Fatalf("parallel HashProbe call allocated %.1f times, budget 16", many)
	}
}

// TestLeaseRightSizesAndBounds pins what a lease pins: a buffer already
// in the size class of its contents is kept as it is (no copy), a mostly
// empty one and per-morsel parts move into one right-sized buffer, and
// past leaseMaxValues outputs are owned copies again.
func TestLeaseRightSizesAndBounds(t *testing.T) {
	before := LiveScratch()
	var lease Lease
	o := &Opts{}
	o.KeepIn(&lease)

	snug := borrowU64(1000)
	*snug = (*snug)[:900]
	if out := o.outU64(snug); &out[0] != &(*snug)[0] {
		t.Fatal("a right-sized buffer was copied")
	}
	loose := borrowU64(1 << 16)
	*loose = append(*loose, 1, 2, 3)
	if out := o.outU64(loose); cap(out) != 1<<scratchMinBits || out[2] != 3 {
		t.Fatalf("3 values left in a %d-value buffer", cap(out))
	}
	a, b := borrowU32(8), borrowU32(8)
	*a, *b = append(*a, 1, 2), append(*b, 3)
	if out := o.outU32(a, b); len(out) != 3 || out[2] != 3 {
		t.Fatalf("merged parts: %v", out)
	}
	if got := LiveScratch(); got != before+3 {
		t.Fatalf("three outputs hold %d arena buffers", got-before)
	}

	lease.values = leaseMaxValues
	full := borrowU64(8)
	*full = append(*full, 7)
	if out := o.outU64(full); cap(out) != 1 || out[0] != 7 {
		t.Fatalf("a full lease must copy out, got cap %d", cap(out))
	}
	lease.Release()
	if got := LiveScratch(); got != before {
		t.Fatalf("scratch leak: %d live buffers before, %d after", before, got)
	}
}
