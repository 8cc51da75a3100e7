package ops

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ahead/internal/an"
	"ahead/internal/storage"
)

// deltaTwoPass is the Δ this package ran before the one-pass kernel: a
// verification pass over the column, then a second pass softening it
// into a freshly allocated column. It survives as the oracle the
// one-pass Δ is held to, value for value and log entry for log entry.
func deltaTwoPass(col *storage.Column, log *ErrorLog) (*storage.Column, error) {
	if col.Code() == nil {
		return nil, fmt.Errorf("ops: Δ needs a hardened column, got %q", col.Name())
	}
	errs, err := col.CheckAll()
	if err != nil {
		return nil, err
	}
	if log != nil {
		for _, pos := range errs {
			log.Record(col.Name(), pos)
		}
	}
	return col.Soften()
}

// goMorsels runs every morsel on its own goroutine, so the pooled half
// of the Δ matrix is real concurrency under -race.
type goMorsels struct{ morsel int }

func (g goMorsels) Workers() int    { return 4 }
func (g goMorsels) MorselSize() int { return g.morsel }
func (g goMorsels) ForEach(total int, fn func(m, start, end int)) {
	var wg sync.WaitGroup
	for m, start := 0, 0; start < total; m, start = m+1, start+g.morsel {
		wg.Add(1)
		go func(m, start, end int) {
			defer wg.Done()
			fn(m, start, end)
		}(m, start, min(start+g.morsel, total))
	}
	wg.Wait()
}

type deltaCase struct {
	kind storage.Kind
	code *an.Code
}

// chooserCodes enumerates every code the table choosers can assign -
// LargestCodeChooser and MinBFWCodeChooser at every weight - over the
// four data widths a column can have.
func chooserCodes(t *testing.T) []deltaCase {
	t.Helper()
	choosers := []storage.CodeChooser{storage.LargestCodeChooser}
	for w := 1; w <= an.MaxMinBFW; w++ {
		choosers = append(choosers, storage.MinBFWCodeChooser(w))
	}
	var out []deltaCase
	seen := map[[2]uint64]bool{}
	pairs := map[string]bool{}
	for _, k := range []struct {
		kind storage.Kind
		bits uint
	}{{storage.TinyInt, 8}, {storage.ShortInt, 16}, {storage.Int, 32}, {storage.BigInt, 48}} {
		for _, choose := range choosers {
			code, err := choose(k.bits)
			if err != nil || seen[[2]uint64{code.A(), uint64(k.bits)}] {
				continue
			}
			seen[[2]uint64{code.A(), uint64(k.bits)}] = true
			out = append(out, deltaCase{k.kind, code})
			pairs[fmt.Sprintf("%d->%d bits", code.CodeBits(), k.bits)] = true
		}
	}
	if len(pairs) < 6 {
		t.Fatalf("choosers produced only %d (code width, data width) pairs: %v", len(pairs), pairs)
	}
	return out
}

func randomHardened(t *testing.T, rng *rand.Rand, c deltaCase, n int) *storage.Column {
	t.Helper()
	col, err := storage.NewColumn("v", c.kind)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		col.Append(rng.Uint64() & c.code.MaxData())
	}
	return harden(t, col, c.code)
}

// plantFlips corrupts one bit - inside every code's guarantee - at block
// heads, block tails, the ragged tail and a few random rows, and returns
// how many rows it hit.
func plantFlips(rng *rand.Rand, h *storage.Column) int {
	n := h.Len()
	if n == 0 {
		return 0
	}
	full := n &^ (an.Block - 1)
	rows := map[int]bool{}
	for _, r := range []int{0, an.Block - 1, an.Block, full - an.Block, full - 1, full, n - 1, rng.Intn(n), rng.Intn(n)} {
		if r >= 0 && r < n {
			rows[r] = true
		}
	}
	for r := range rows {
		h.Corrupt(r, 1<<uint(rng.Intn(int(h.Code().CodeBits()))))
	}
	return len(rows)
}

func columnsEqual(a, b *storage.Column) error {
	if a.Kind() != b.Kind() || a.Width() != b.Width() || a.Len() != b.Len() || a.IsHardened() != b.IsHardened() {
		return fmt.Errorf("shape %v/%d/%d vs %v/%d/%d", a.Kind(), a.Width(), a.Len(), b.Kind(), b.Width(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Get(i) != b.Get(i) {
			return fmt.Errorf("row %d: %d vs %d", i, a.Get(i), b.Get(i))
		}
	}
	return nil
}

// TestDifferentialDelta holds the one-pass Δ to the two-pass reference:
// every chooser-reachable (code width, data width) pair x {Scalar,
// Blocked} x {serial, pooled} on lengths around the block size and
// powers of two, clean and with flips at the block edges. The decoded
// column and the error log must match exactly, and the arena must be
// balanced once every Δ is released.
func TestDifferentialDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lengths := []int{0, 1, 7, 8, 9, 15, 17, 63, 65, 1023, 1025, 4095, 4097}
	runners := map[string]Parallel{
		"serial":   nil,
		"pooled":   goMorsels{morsel: 16},
		"pooled37": serialMorsels{workers: 4, morsel: 37}, // morsels that split blocks
	}
	before := LiveScratch()
	for _, c := range chooserCodes(t) {
		for _, n := range lengths {
			for _, faulty := range []bool{false, true} {
				h := randomHardened(t, rng, c, n)
				planted := 0
				if faulty {
					planted = plantFlips(rng, h)
				}
				refLog := NewErrorLog()
				ref, err := deltaTwoPass(h, refLog)
				if err != nil {
					t.Fatal(err)
				}
				if refLog.Count() != planted {
					t.Fatalf("%v n=%d: reference found %d of %d single-bit flips", c.code, n, refLog.Count(), planted)
				}
				for name, par := range runners {
					for _, fl := range []Flavor{Scalar, Blocked} {
						log := NewErrorLog()
						got, release, err := Delta(h, &Opts{Flavor: fl, Log: log, Par: par})
						if err != nil {
							t.Fatalf("%v n=%d %s/%v: %v", c.code, n, name, fl, err)
						}
						if err := columnsEqual(got, ref); err != nil {
							t.Fatalf("%v n=%d %s/%v: decoded column differs: %v", c.code, n, name, fl, err)
						}
						if !log.Equal(refLog) {
							t.Fatalf("%v n=%d %s/%v: log %v, reference %v", c.code, n, name, fl, log.Entries(), refLog.Entries())
						}
						release()
					}
				}
			}
		}
	}
	if got := LiveScratch(); got != before {
		t.Fatalf("scratch leak: %d live buffers before, %d after", before, got)
	}
}

func TestDeltaRejectsPlainColumn(t *testing.T) {
	col := tinyColumn(t, "v", []uint64{1, 2, 3, 4})
	before := LiveScratch()
	if _, _, err := Delta(col, &Opts{Log: NewErrorLog()}); err == nil {
		t.Fatal("Δ on plain column must error")
	}
	if got := LiveScratch(); got != before {
		t.Fatalf("scratch leak on the error path: %d -> %d", before, got)
	}
}

// TestDeltaResidue: a residue column is already plain, so Δ hands the
// column itself back after verifying the sidecar - serial and pooled
// logs equal the per-row reference.
func TestDeltaResidue(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range []storage.Kind{storage.TinyInt, storage.ShortInt, storage.Int, storage.BigInt} {
		col, err := storage.NewColumn("r", kind)
		if err != nil {
			t.Fatal(err)
		}
		n := 1000 + rng.Intn(100)
		for i := 0; i < n; i++ {
			col.Append(rng.Uint64() >> (64 - kind.DataBits()))
		}
		rc, err := col.HardenResidue(16)
		if err != nil {
			t.Fatal(err)
		}
		want := NewErrorLog()
		for _, r := range []int{0, 7, 8, n / 2, n - 1} {
			rc.Corrupt(r, 1<<uint(rng.Intn(int(kind.DataBits()))))
		}
		for i := 0; i < n; i++ {
			if !rc.ResidueCode().Check(rc.Get(i), rc.ResidueCode().Residue(col.Get(i))) {
				want.Record("r", uint64(i))
			}
		}
		if want.Count() != 5 {
			t.Fatalf("%v: reference saw %d of 5 flips", kind, want.Count())
		}
		for name, par := range map[string]Parallel{"serial": nil, "pooled": goMorsels{morsel: 64}} {
			log := NewErrorLog()
			got, release, err := Delta(rc, &Opts{Log: log, Par: par})
			if err != nil {
				t.Fatal(err)
			}
			if got != rc {
				t.Fatalf("%v %s: residue Δ must return the column itself", kind, name)
			}
			if !log.Equal(want) {
				t.Fatalf("%v %s: log %v, want %v", kind, name, log.Entries(), want.Entries())
			}
			release()
		}
	}
}

// TestDeltaCancelledMidScan cancels after the third morsel: Δ returns
// the context error, hands out no column, and has already given its
// buffer back.
func TestDeltaCancelledMidScan(t *testing.T) {
	vals := make([]uint64, 200)
	h := harden(t, tinyColumn(t, "v", vals), code8)
	before := LiveScratch()
	ctx, cancel := context.WithCancel(context.Background())
	par := &cancelAfterPar{morsel: 16, after: 2, cancel: cancel}
	col, release, err := Delta(h, &Opts{Par: par, Ctx: ctx, Log: NewErrorLog()})
	if !errors.Is(err, context.Canceled) || col != nil || release != nil {
		t.Fatalf("cancelled Δ returned (%v, %v), want context.Canceled and no column", col, err)
	}
	if got := LiveScratch(); got != before {
		t.Fatalf("scratch leak: %d live buffers before, %d after cancelled Δ", before, got)
	}
}

// TestDeltaAboveTopClass: a column longer than the largest size class
// still softens, through the allocator fallback, and still balances.
func TestDeltaAboveTopClass(t *testing.T) {
	n := 1<<scratchMaxBits + 3
	col, err := storage.NewColumn("big", storage.TinyInt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		col.AppendRaw(uint64(i % 251))
	}
	h := harden(t, col, code8)
	h.Corrupt(n-1, 1)
	before := LiveScratch()
	log := NewErrorLog()
	plain, release, err := Delta(h, &Opts{Flavor: Blocked, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != n || plain.Get(5) != 5 || plain.Get(n-2) != uint64((n-2)%251) {
		t.Fatalf("decoded %d rows, row 5 = %d", plain.Len(), plain.Get(5))
	}
	if pos, _ := log.Positions("big"); len(pos) != 1 || pos[0] != uint64(n-1) {
		t.Fatalf("log positions %v, want [%d]", pos, n-1)
	}
	release()
	if got := LiveScratch(); got != before {
		t.Fatalf("scratch leak above the top class: %d -> %d", before, got)
	}
}

// TestDeltaSteadyStateAllocs: a warm Δ costs the column header and the
// release closure - not a buffer - whatever the column length.
func TestDeltaSteadyStateAllocs(t *testing.T) {
	measure := func(n int) float64 {
		h := harden(t, tinyColumn(t, "v", make([]uint64, n)), code8)
		o := &Opts{Flavor: Blocked}
		run := func() {
			_, release, err := Delta(h, o)
			if err != nil {
				t.Fatal(err)
			}
			release()
		}
		run() // warm the class
		return testing.AllocsPerRun(100, run)
	}
	small, large := measure(1<<10), measure(1<<16)
	if raceEnabled {
		t.Skipf("race instrumentation changes alloc counts (measured %.1f and %.1f)", small, large)
	}
	if small > 3 || large > 3 {
		t.Fatalf("warm Δ allocated %.1f (1K rows) and %.1f (64K rows) times, budget 3", small, large)
	}
}
