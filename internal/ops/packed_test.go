package ops

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ahead/internal/storage"
)

// packedColumn builds a hardened TinyInt column whose 16-bit code words
// (A=233, 8 data bits) qualify for the packed mirror. Values cycle over
// [0, 50) so range predicates select a stable subset.
func packedColumn(t *testing.T, n int) *storage.Column {
	t.Helper()
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 50)
	}
	h := harden(t, tinyColumn(t, "v", vals), code8)
	if h.Packed() == nil {
		t.Fatal("16-bit hardened column must carry a packed mirror")
	}
	return h
}

// TestPackedLanesSelection pins the representation-selection rules:
// narrow codes get the mirror, wide codes and opted-out queries do not.
func TestPackedLanesSelection(t *testing.T) {
	h := packedColumn(t, 64)
	o := &Opts{}
	if o.packedLanes(h) == nil {
		t.Fatal("qualifying column must expose its packed lanes")
	}
	if (&Opts{NoPacked: true}).packedLanes(h) != nil {
		t.Fatal("NoPacked must force the wide path")
	}
	plain := tinyColumn(t, "p", []uint64{1, 2, 3})
	if o.packedLanes(plain) != nil {
		t.Fatal("unhardened column has no packed mirror")
	}
	wide := harden(t, intColumn(t, "w", []uint64{1, 2, 3}), code32)
	if wide.Packed() != nil || o.packedLanes(wide) != nil {
		t.Fatal("47-bit code words must not be packed (CodeBits > MaxPackedBits)")
	}
}

// TestPackedFilterMatchesWide is the core differential of the tentpole:
// Filter over the packed mirror returns exactly the positions and error
// log of the wide kernels, across Late and Continuous, clean and
// corrupted, serial and pooled.
func TestPackedFilterMatchesWide(t *testing.T) {
	h := packedColumn(t, 1000)
	h.Corrupt(7, 1<<3)    // value 7, inside [10,40]? no: 7 < 10, but corruption must still log
	h.Corrupt(113, 1<<9)  // value 13, inside range
	h.Corrupt(777, 1<<14) // value 27, inside range

	pools := map[string]Parallel{
		"serial": nil,
		"pooled": serialMorsels{workers: 4, morsel: 37},
	}
	for name, par := range pools {
		for _, detect := range []bool{false, true} {
			wantLog, gotLog := NewErrorLog(), NewErrorLog()
			want, err := Filter(h, 10, 40, &Opts{Detect: detect, HardenIDs: detect, Log: wantLog, Par: par, NoPacked: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Filter(h, 10, 40, &Opts{Detect: detect, HardenIDs: detect, Log: gotLog, Par: par})
			if err != nil {
				t.Fatal(err)
			}
			if got.Hardened != want.Hardened {
				t.Fatalf("%s detect=%v: hardened flag %v, want %v", name, detect, got.Hardened, want.Hardened)
			}
			if !reflect.DeepEqual(got.Pos, want.Pos) {
				t.Fatalf("%s detect=%v: packed filter %d survivors, wide %d", name, detect, got.Len(), want.Len())
			}
			if !gotLog.Equal(wantLog) {
				t.Fatalf("%s detect=%v: packed log %v, wide log %v", name, detect, gotLog.Entries(), wantLog.Entries())
			}
			if detect && wantLog.Count() == 0 {
				t.Fatal("continuous wide filter must have logged the injected faults")
			}
		}
	}
}

// TestPackedFilterBoundaryPredicates sweeps the predicate edge cases the
// SWAR bound-hardening must mirror: empty ranges, bounds at and beyond
// the data domain, and full-domain selections.
func TestPackedFilterBoundaryPredicates(t *testing.T) {
	h := packedColumn(t, 300)
	cases := [][2]uint64{
		{0, 0}, {49, 49}, {50, 60}, {0, code8.MaxData()},
		{0, ^uint64(0)}, {code8.MaxData() + 1, ^uint64(0)}, {21, 20},
	}
	for _, detect := range []bool{false, true} {
		for _, c := range cases {
			want, err := Filter(h, c[0], c[1], &Opts{Detect: detect, NoPacked: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Filter(h, c[0], c[1], &Opts{Detect: detect})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Pos, want.Pos) {
				t.Fatalf("[%d,%d] detect=%v: packed %v, wide %v", c[0], c[1], detect, got.Pos, want.Pos)
			}
		}
	}
}

// TestPackedFilterPooledMatchesSerialLog pins the determinism contract on
// the packed kernels themselves: a pooled run over uneven morsels logs
// byte-identical entries, in identical order, to the serial run.
func TestPackedFilterPooledMatchesSerialLog(t *testing.T) {
	h := packedColumn(t, 1000)
	for _, pos := range []int{3, 111, 112, 113, 500, 998} {
		h.Corrupt(pos, 1<<5)
	}
	serialLog := NewErrorLog()
	serialSel, err := Filter(h, 0, 49, &Opts{Detect: true, Log: serialLog})
	if err != nil {
		t.Fatal(err)
	}
	pooledLog := NewErrorLog()
	pooledSel, err := Filter(h, 0, 49, &Opts{Detect: true, Log: pooledLog, Par: serialMorsels{workers: 3, morsel: 61}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooledSel.Pos, serialSel.Pos) {
		t.Fatal("pooled packed filter disagrees with serial")
	}
	if !pooledLog.Equal(serialLog) {
		t.Fatalf("pooled packed log %v, serial %v", pooledLog.Entries(), serialLog.Entries())
	}
	if serialLog.Count() != 6 {
		t.Fatalf("serial run logged %d errors, want 6", serialLog.Count())
	}
}

// TestScratchWidthClassRoundTrip covers the narrow width classes of the
// arena (Δ borrows softened columns from them, the fused sink its
// attribute staging): u8 and u16 borrow, fill, release and re-borrow
// clean, own and concat copy out, and LiveScratch stays balanced.
func TestScratchWidthClassRoundTrip(t *testing.T) {
	before := LiveScratch()
	for _, n := range []int{0, 1, 255, 256, 257, 1 << 12} {
		p8 := borrow(u8Classes, n)
		if len(*p8) != 0 || cap(*p8) < n {
			t.Fatalf("borrow(u8, %d): len/cap %d/%d", n, len(*p8), cap(*p8))
		}
		*p8 = append(*p8, 1, 2)
		release(u8Classes, p8)

		p16 := borrowU16(n)
		if len(*p16) != 0 || cap(*p16) < n {
			t.Fatalf("borrowU16(%d): len/cap %d/%d", n, len(*p16), cap(*p16))
		}
		*p16 = append(*p16, 7)
		releaseU16(p16)
	}
	// A dirty release must come back zero-length on the next borrow.
	d := borrowU16(64)
	*d = (*d)[:64]
	for i := range *d {
		(*d)[i] = ^uint16(0)
	}
	releaseU16(d)
	if z := borrowU16(64); len(*z) != 0 {
		t.Fatalf("borrowU16 after dirty release: len %d, want 0", len(*z))
	} else {
		releaseU16(z)
	}
	// own/concat across the narrow widths.
	a8 := borrow(u8Classes, 8)
	*a8 = append(*a8, 5, 6)
	if got := concat(u8Classes, []*[]uint8{a8}); len(got) != 2 || got[1] != 6 {
		t.Fatalf("concat(u8): %v", got)
	}
	a16, b16 := borrowU16(4), borrowU16(4)
	*a16 = append(*a16, 1)
	*b16 = append(*b16, 2, 3)
	if got := concat(u16Classes, []*[]uint16{a16, b16}); len(got) != 3 || got[2] != 3 {
		t.Fatalf("concat(u16): %v", got)
	}
	if got := LiveScratch(); got != before {
		t.Fatalf("width-class round trips leaked: %d live before, %d after", before, got)
	}
}

// TestPackedKernelZeroAllocs asserts the packed morsel kernels stay on
// the arena budget: one warm packed filter morsel - borrow, SWAR scan,
// release - allocates nothing, on both the Late and Continuous paths.
func TestPackedKernelZeroAllocs(t *testing.T) {
	h := packedColumn(t, 4096)
	for _, tc := range []struct {
		name string
		o    *Opts
	}{
		{"late", &Opts{}},
		{"continuous", &Opts{Detect: true}},
	} {
		f := makeFusedPred(RangePred{Col: h, Lo: 8, Hi: 40}, tc.o)
		if f.lanes == nil {
			t.Fatal("predicate must scan the packed mirror")
		}
		run := func() {
			releaseU64(f.scanMorsel(tc.o, nil, 1024, 2048))
		}
		run() // warm the pool
		allocs := testing.AllocsPerRun(200, run)
		if raceEnabled {
			t.Skipf("race instrumentation changes alloc counts (measured %.1f)", allocs)
		}
		if allocs != 0 {
			t.Fatalf("warm %s packed morsel allocated %.1f times, want 0", tc.name, allocs)
		}
	}
}

// TestCancelledPackedScanReleasesScratch: cancellation mid-packed-scan
// must drop the completed morsels' borrowed position buffers and leave
// the arena balanced - the same leak invariant the wide kernels hold.
func TestCancelledPackedScanReleasesScratch(t *testing.T) {
	h := packedColumn(t, 200)
	before := LiveScratch()
	ctx, cancel := context.WithCancel(context.Background())
	par := &cancelAfterPar{morsel: 16, after: 2, cancel: cancel}
	_, err := Filter(h, 0, 49, &Opts{Par: par, Ctx: ctx, Log: NewErrorLog()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled packed filter returned %v, want context.Canceled", err)
	}
	if got := LiveScratch(); got != before {
		t.Fatalf("scratch leak: %d live buffers before, %d after cancelled packed scan", before, got)
	}
}
