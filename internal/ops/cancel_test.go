package ops

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// cancelAfterPar is a deterministic Parallel runner: it executes the
// morsels serially and fires cancel after the morsel with index after,
// so the test controls exactly how many morsels complete before the
// context check trips.
type cancelAfterPar struct {
	morsel int
	after  int
	cancel context.CancelFunc
}

func (p *cancelAfterPar) Workers() int    { return 2 }
func (p *cancelAfterPar) MorselSize() int { return p.morsel }

func (p *cancelAfterPar) ForEach(total int, fn func(morsel, start, end int)) {
	count := (total + p.morsel - 1) / p.morsel
	for m := 0; m < count; m++ {
		start := m * p.morsel
		end := min(start+p.morsel, total)
		fn(m, start, end)
		if m == p.after {
			p.cancel()
		}
	}
}

// TestCancelStopsWithinOneMorsel pins the morsel-boundary guarantee at
// the runner level: after the cancel fires, no further morsel kernel
// executes, and the buffers of the morsels that did complete are
// dropped.
func TestCancelStopsWithinOneMorsel(t *testing.T) {
	before := LiveScratch()
	ctx, cancel := context.WithCancel(context.Background())
	par := &cancelAfterPar{morsel: 16, after: 2, cancel: cancel}
	ran := 0
	_, err := runMorsels(par, 100, &Opts{Ctx: ctx}, NewErrorLog(), dropU64,
		func(log *ErrorLog, start, end int) (*[]uint64, error) {
			ran++
			return borrowU64(end - start), nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled runMorsels returned %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("%d morsel kernels ran after cancel at morsel 2, want exactly 3", ran)
	}
	if got := LiveScratch(); got != before {
		t.Fatalf("scratch leak: %d live buffers before, %d after", before, got)
	}
}

// TestCancelledRunReleasesScratch is the leak test of the cancellation
// path: a run cancelled after some morsels completed must drop every
// borrowed buffer those morsels produced, leaving the arena balanced.
func TestCancelledRunReleasesScratch(t *testing.T) {
	vals := make([]uint64, 200)
	for i := range vals {
		vals[i] = uint64(i)
	}
	col := intColumn(t, "w", vals)
	sel := &Sel{Pos: make([]uint64, 200)}
	for i := range sel.Pos {
		sel.Pos[i] = uint64(i)
	}

	before := LiveScratch()
	ctx, cancel := context.WithCancel(context.Background())
	par := &cancelAfterPar{morsel: 16, after: 2, cancel: cancel}
	log := NewErrorLog()
	_, err := Gather(col, sel, &Opts{Par: par, Ctx: ctx, Log: log})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled gather returned %v, want context.Canceled", err)
	}
	if got := LiveScratch(); got != before {
		t.Fatalf("scratch leak: %d live buffers before, %d after cancelled run", before, got)
	}
}

// TestCancelledProbeReleasesScratch exercises the two-buffer drop path
// of HashProbe (positions + matches per morsel), without and with a
// query's lease: a cancelled probe leaves nothing behind - not in the
// arena, not in the lease - while what completed probes handed out stays
// borrowed until the lease is released.
func TestCancelledProbeReleasesScratch(t *testing.T) {
	col, ht := semiJoinFixture(t, 200, 100)
	before := LiveScratch()
	cancelled := func(lease *Lease) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		o := &Opts{Par: &cancelAfterPar{morsel: 16, after: 1, cancel: cancel}, Ctx: ctx, Log: NewErrorLog()}
		if lease != nil {
			o.KeepIn(lease)
		}
		held := LiveScratch()
		if _, _, err := HashProbe(col, ht, nil, o); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled probe returned %v, want context.Canceled", err)
		}
		if got := LiveScratch(); got != held {
			t.Fatalf("scratch leak: %d live buffers before, %d after cancelled run", held, got)
		}
	}
	cancelled(nil)

	var lease Lease
	for _, par := range []Parallel{nil, serialMorsels{workers: 4, morsel: 16}} {
		o := &Opts{Par: par}
		o.KeepIn(&lease)
		held := LiveScratch()
		sel, matches, err := HashProbe(col, ht, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := LiveScratch(); got != held+2 {
			t.Fatalf("a leased probe output holds %d arena buffers, want 2 (positions, matches)", got-held)
		}
		want, wantMatches, err := HashProbe(col, ht, nil, &Opts{Par: par})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sel.Pos, want.Pos) || !reflect.DeepEqual(matches, wantMatches) {
			t.Fatal("leased probe output differs from the owned one")
		}
	}
	cancelled(&lease)
	lease.Release()
	lease.Release() // idempotent
	if got := LiveScratch(); got != before {
		t.Fatalf("scratch leak: %d live buffers before, %d after the lease was released", before, got)
	}
}

// TestPreCancelledEntryPoints asserts every operator entry checks the
// context before touching data.
func TestPreCancelledEntryPoints(t *testing.T) {
	vals := make([]uint64, 50)
	col := intColumn(t, "w", vals)
	sel := &Sel{Pos: []uint64{0, 1, 2}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := &Opts{Ctx: ctx}
	if _, err := Filter(col, 0, 10, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("Filter: %v", err)
	}
	if _, err := Gather(col, sel, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("Gather: %v", err)
	}
	if _, err := HashBuild(col, sel, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("HashBuild: %v", err)
	}
	if _, _, err := GroupBy([]*Vec{{Name: "k", Vals: vals}}, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("GroupBy: %v", err)
	}
	if _, err := SumGrouped(&Vec{Name: "v", Vals: vals}, make([]uint32, 50), 1, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("SumGrouped: %v", err)
	}
}

// TestCompletedRunIgnoresLiveContext: a context that stays live must not
// perturb the result or the log of a run that completes - the
// determinism guarantee serving-layer deadlines rely on.
func TestCompletedRunIgnoresLiveContext(t *testing.T) {
	vals := make([]uint64, 300)
	for i := range vals {
		vals[i] = uint64(i % 50)
	}
	col := tinyColumn(t, "v", vals)
	h := harden(t, col, code8)
	h.Corrupt(7, 1<<3)

	run := func(ctx context.Context) ([]uint64, *ErrorLog) {
		log := NewErrorLog()
		sel, err := Filter(h, 0, 49, &Opts{Detect: true, Log: log, Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		return sel.Plain(nil), log
	}
	wantPos, wantLog := run(nil)
	gotPos, gotLog := run(context.Background())
	if len(gotPos) != len(wantPos) {
		t.Fatalf("context-bound run: %d survivors, want %d", len(gotPos), len(wantPos))
	}
	if gotLog.Count() != wantLog.Count() {
		t.Fatalf("context-bound run logged %d errors, want %d", gotLog.Count(), wantLog.Count())
	}
}
