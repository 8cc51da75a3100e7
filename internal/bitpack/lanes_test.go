package bitpack

import (
	mbits "math/bits"
	"math/rand"
	"testing"

	"ahead/internal/an"
)

func TestLanesValidation(t *testing.T) {
	if _, err := NewLanes(0); err == nil {
		t.Error("payload width 0 must error")
	}
	if _, err := NewLanes(MaxLaneBits + 1); err == nil {
		t.Error("payload width beyond MaxLaneBits must error")
	}
	// Layout selection: the delimiter-free field (F = W) wins whenever it
	// packs more lanes than the spare-bit field (F = W+1).
	for _, bits := range []uint{1, 8, 13, 16, 20, 31} {
		l, err := NewLanes(bits)
		if err != nil {
			t.Fatalf("NewLanes(%d): %v", bits, err)
		}
		want := 64 / int(bits+1)
		if free := 64 / int(bits); free > want {
			want = free
		}
		if l.PerWord() != want {
			t.Fatalf("bits=%d: PerWord %d, want %d", bits, l.PerWord(), want)
		}
	}
	// The shapes the SSB columns hit: 16-bit codes pack four lanes (the
	// wide array's density, compared register-parallel), 20-bit codes
	// keep the spare-bit layout at three.
	if l, _ := NewLanes(16); l.PerWord() != 4 || l.delim {
		t.Fatal("16-bit lanes must use the delimiter-free layout, 4 per word")
	}
	if l, _ := NewLanes(20); l.PerWord() != 3 || !l.delim {
		t.Fatal("20-bit lanes must keep the delimiter layout, 3 per word")
	}
}

// Random access splits a lane index into word and shift via a
// fixed-point reciprocal instead of a hardware divide; verify it exactly
// matches integer division for every possible lane count, over dense
// small indices and the boundary neighborhoods where an off-by-one
// reciprocal would first diverge.
func TestLanesIndexReciprocalExact(t *testing.T) {
	for k := uint64(2); k <= 64; k++ {
		divM := ^uint64(0)/k + 1
		check := func(i uint64) {
			got, _ := mbits.Mul64(i, divM)
			if want := i / k; got != want {
				t.Fatalf("k=%d i=%d: reciprocal %d, division %d", k, i, got, want)
			}
		}
		for i := uint64(0); i < 4096; i++ {
			check(i)
		}
		for _, base := range []uint64{1 << 16, 1 << 31, 1 << 40, 1 << 57} {
			for d := uint64(0); d < 2*k; d++ {
				check(base - d)
				check(base + d)
			}
		}
	}
}

func TestLanesAppendGetSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for bits := uint(1); bits <= MaxLaneBits; bits++ {
		l, err := NewLanes(bits)
		if err != nil {
			t.Fatal(err)
		}
		// A length that is deliberately not a multiple of the lane count.
		n := 3*l.PerWord() + 1
		want := make([]uint64, n)
		for i := range want {
			want[i] = rng.Uint64() & maskFor(bits)
			l.Append(want[i])
		}
		for i, w := range want {
			if got := l.Get(i); got != w {
				t.Fatalf("bits=%d: Get(%d) = %d, want %d", bits, i, got, w)
			}
		}
		for i := range want {
			want[i] = rng.Uint64() & maskFor(bits)
			l.Set(i, want[i])
		}
		for i, w := range want {
			if got := l.Get(i); got != w {
				t.Fatalf("bits=%d: after Set, Get(%d) = %d, want %d", bits, i, got, w)
			}
		}
	}
}

// lanesScanRef is the scalar reference the SWAR kernel must match.
func lanesScanRef(l *Lanes, lo, hi uint64, start, end int, posMul uint64) []uint64 {
	if end > l.Len() {
		end = l.Len()
	}
	if lo > l.lmask {
		lo = l.lmask
	}
	if hi > l.lmask {
		hi = l.lmask
	}
	var out []uint64
	for i := start; i < end; i++ {
		if v := l.Get(i); lo <= hi && v >= lo && v <= hi {
			out = append(out, uint64(i)*posMul)
		}
	}
	return out
}

func TestLanesScanRangeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bits := range []uint{1, 3, 8, 13, 16, 20, 31} {
		l, err := NewLanes(bits)
		if err != nil {
			t.Fatal(err)
		}
		max := maskFor(bits)
		// Lengths around word boundaries: multiples of the lane count,
		// one off either side, and a lone tail value.
		n := 17*l.PerWord() + 1
		for i := 0; i < n; i++ {
			l.Append(rng.Uint64() & max)
		}
		for trial := 0; trial < 50; trial++ {
			lo := rng.Uint64() & max
			hi := rng.Uint64() & max
			if lo > hi {
				lo, hi = hi, lo
			}
			start := rng.Intn(n + 1)
			end := start + rng.Intn(n+1-start)
			got := l.ScanRangeRawInto(lo, hi, start, end, 1, nil)
			want := lanesScanRef(l, lo, hi, start, end, 1)
			if len(got) != len(want) {
				t.Fatalf("bits=%d [%d,%d] rows [%d,%d): %d matches, want %d", bits, lo, hi, start, end, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("bits=%d: position %d = %d, want %d", bits, i, got[i], want[i])
				}
			}
		}
		// Full-range scan selects everything, in order, exactly once -
		// the garbage-lane check: zeroed tail lanes must not match even
		// when lo == 0.
		all := l.ScanRangeRawInto(0, max, 0, n, 1, nil)
		if len(all) != n {
			t.Fatalf("bits=%d: full scan found %d of %d (tail lanes leaked?)", bits, len(all), n)
		}
		// posMul scales every emission.
		scaled := l.ScanRangeRawInto(0, max, 0, n, 7, nil)
		for i, p := range scaled {
			if p != all[i]*7 {
				t.Fatalf("posMul not applied at %d", i)
			}
		}
	}
}

func TestLanesScanEmptyAndClampedBounds(t *testing.T) {
	l, _ := NewLanes(8)
	for i := 0; i < 100; i++ {
		l.Append(uint64(i))
	}
	if out := l.ScanRangeRawInto(20, 10, 0, 100, 1, nil); len(out) != 0 {
		t.Fatal("inverted range must be empty")
	}
	if out := l.ScanRangeRawInto(5, 5, 0, 0, 1, nil); len(out) != 0 {
		t.Fatal("empty row range must be empty")
	}
	// Bounds clamp to the payload maximum, mirroring the wide kernels.
	out := l.ScanRangeRawInto(250, 9999, 0, 100, 1, nil)
	if len(out) != 0 {
		t.Fatalf("clamped scan of values <100 found %d", len(out))
	}
}

func TestLanesHardenedScanAndCheck(t *testing.T) {
	code := an.MustNew(233, 8) // 16-bit codes: the SSB restiny shape, K=3
	values := make([]uint64, 1000)
	rng := rand.New(rand.NewSource(4))
	for i := range values {
		values[i] = uint64(rng.Intn(200))
	}
	l, err := PackLanes(values, 0, code)
	if err != nil {
		t.Fatal(err)
	}
	if l.Code() != code || l.Bits() != code.CodeBits() {
		t.Fatal("hardened lanes metadata")
	}
	// Late: encoded bounds against raw code words.
	lo, hi := uint64(50), uint64(99)
	raw := l.ScanRangeRawInto(code.Encode(lo), code.Encode(hi), 0, l.Len(), 1, nil)
	// Continuous: soften-verify-compare.
	checked, errs := l.ScanRangeCheckedInto(lo, hi, 0, l.Len(), 1, nil, nil)
	if len(errs) != 0 {
		t.Fatalf("clean data flagged %d", len(errs))
	}
	want := 0
	for _, v := range values {
		if v >= lo && v <= hi {
			want++
		}
	}
	if len(raw) != want || len(checked) != want {
		t.Fatalf("raw %d checked %d, want %d", len(raw), len(checked), want)
	}
	for i := range raw {
		if raw[i] != checked[i] {
			t.Fatalf("late/continuous position mismatch at %d", i)
		}
	}
	// Decoded access.
	for i, v := range values {
		if l.Value(i) != v {
			t.Fatalf("Value(%d) = %d, want %d", i, l.Value(i), v)
		}
	}
}

func TestLanesCheckedScanDetectsCorruption(t *testing.T) {
	code := an.MustNew(233, 8)
	values := make([]uint64, 200)
	for i := range values {
		values[i] = uint64(i % 256)
	}
	l, _ := PackLanes(values, 0, code)
	l.Corrupt(17, 1<<5)
	l.Corrupt(63, 1<<2|1<<11)
	out, errs := l.ScanRangeCheckedInto(0, 255, 0, l.Len(), 1, nil, nil)
	if len(errs) != 2 || errs[0] != 17 || errs[1] != 63 {
		t.Fatalf("errs = %v", errs)
	}
	if len(out) != 198 {
		t.Fatalf("clean rows selected: %d", len(out))
	}
	// Sub-range scans see only their own corruption.
	_, errs = l.ScanRangeCheckedInto(0, 255, 18, 100, 1, nil, nil)
	if len(errs) != 1 || errs[0] != 63 {
		t.Fatalf("sub-range errs = %v", errs)
	}
	// Out-of-domain bounds scan nothing, like the wide checked kernel.
	out, errs = l.ScanRangeCheckedInto(300, 400, 0, l.Len(), 1, nil, nil)
	if len(out) != 0 || len(errs) != 0 {
		t.Fatal("out-of-domain checked scan must be empty")
	}
}

// A flipped delimiter bit cannot arise from the payload-masked fault
// model, but the checked scan must still reject it rather than decode a
// neighboring-lane hybrid. (Needs a delimiter-layout width: 20-bit
// codes; 16-bit codes have no spare bit to flip.)
func TestLanesCheckedScanRejectsDelimiterBit(t *testing.T) {
	code := an.MustNew(3989, 8) // 12-bit A: 20-bit codes, delimiter layout
	l, _ := PackLanes([]uint64{1, 2, 3, 4, 5, 6, 7}, 0, code)
	if !l.delim {
		t.Fatal("20-bit lanes must carry a delimiter bit")
	}
	l.words[0] |= 1 << l.bits // delimiter of lane 0
	_, errs := l.ScanRangeCheckedInto(0, 255, 0, l.Len(), 1, nil, nil)
	if len(errs) != 1 || errs[0] != 0 {
		t.Fatalf("delimiter corruption not flagged: errs = %v", errs)
	}
}

func TestLanesCorruptConfinedToPayload(t *testing.T) {
	l, _ := NewLanes(16)
	for i := 0; i < 10; i++ {
		l.Append(uint64(i))
	}
	l.Corrupt(4, 1<<13)
	if got := l.Get(4); got != 4^1<<13 {
		t.Fatalf("Corrupt(4) = %d", got)
	}
	// Neighbors are untouched and the flip beyond the payload is masked.
	l.Corrupt(5, 1<<40|1<<3)
	if got := l.Get(5); got != 5^1<<3 {
		t.Fatalf("masked Corrupt(5) = %d", got)
	}
	for _, i := range []int{3, 6} {
		if l.Get(i) != uint64(i) {
			t.Fatalf("neighbor %d damaged", i)
		}
	}
}

// TestAppendSliceMatchesAppend: the word-at-a-time bulk fill lays lanes
// out exactly as one Append per value does - from an empty vector, from
// one that ends mid-word, masked to the payload, for both layouts.
func TestAppendSliceMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, bits := range []uint{1, 7, 8, 13, 16, 20, 31} {
		for _, head := range []int{0, 1, 3, 64} {
			for _, n := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 1000} {
				want, _ := NewLanes(bits)
				got, _ := NewLanes(bits)
				for i := 0; i < head; i++ {
					v := rng.Uint64()
					want.Append(v)
					got.Append(v)
				}
				src := make([]uint32, n)
				for i := range src {
					src[i] = rng.Uint32() // wider than the payload: must be masked
					want.Append(uint64(src[i]))
				}
				AppendSlice(got, src)
				if got.Len() != want.Len() || len(got.words) != len(want.words) {
					t.Fatalf("bits=%d head=%d n=%d: %d lanes in %d words, want %d in %d", bits, head, n, got.Len(), len(got.words), want.Len(), len(want.words))
				}
				for w := range want.words {
					if got.words[w] != want.words[w] {
						t.Fatalf("bits=%d head=%d n=%d: word %d = %#x, want %#x", bits, head, n, w, got.words[w], want.words[w])
					}
				}
			}
		}
	}
}
