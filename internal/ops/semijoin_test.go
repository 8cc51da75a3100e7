package ops

import (
	"reflect"
	"testing"

	"ahead/internal/hashmap"
	"ahead/internal/storage"
)

// semiJoinFixture builds an n-row hardened FK column over a dim-key
// domain and a build table containing every third key - the selective
// dimension shape where the semijoin probe dominates.
func semiJoinFixture(tb testing.TB, n, dim int) (*storage.Column, *hashmap.U64) {
	tb.Helper()
	c, err := storage.NewColumn("fk", storage.Int)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c.Append(uint64(i*7) % uint64(dim))
	}
	h, err := c.Harden(code32)
	if err != nil {
		tb.Fatal(err)
	}
	ht := hashmap.New(dim / 3)
	for k := 0; k < dim; k += 3 {
		ht.Put(uint64(k), uint32(k))
	}
	return h, ht
}

func TestSemiJoinBitsetMatchesHashProbe(t *testing.T) {
	col, ht := semiJoinFixture(t, 10_000, 2_000)
	o := &Opts{Detect: true, Log: NewErrorLog()}

	if makeFKProbe(col, ht, false).keyBits == nil {
		t.Fatal("dense domain must build a bitset")
	}
	fast, err := SemiJoin(col, ht, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := HashProbe(col, ht, nil, &Opts{Detect: true, Log: NewErrorLog()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast.Pos, ref.Pos) {
		t.Fatalf("bitset semijoin: %d survivors, hash probe: %d", fast.Len(), ref.Len())
	}

}

func TestSemiJoinSparseDomainFallsBack(t *testing.T) {
	// The cap bounds the span of the keys, not their values: 500 keys
	// just above it are dense, {0, cap+1} is not.
	far := hashmap.New(500)
	for k := uint64(1); k <= 500; k++ {
		far.Put(maxKeyBitsetBits+k, uint32(k))
	}
	if bits, lo, hi := buildKeyBits(far); bits == nil || lo != maxKeyBitsetBits+1 || hi != maxKeyBitsetBits+500 {
		t.Fatalf("keys {cap+1..cap+500}: bitset %v over [%d, %d]", bits != nil, lo, hi)
	}
	wide := hashmap.New(2)
	wide.Put(0, 0)
	wide.Put(maxKeyBitsetBits+1, 1)
	if bits, _, _ := buildKeyBits(wide); bits != nil {
		t.Fatal("keys {0, cap+1} span beyond the cap and must not build a bitset")
	}

	col, ht := semiJoinFixture(t, 1_000, 500)
	// One key a span beyond the bitset cap forces the hash-probe path.
	ht.Put(maxKeyBitsetBits+1, 0)
	if bits, _, _ := buildKeyBits(ht); bits != nil {
		t.Fatal("sparse domain must not build a bitset")
	}
	ref, _, err := HashProbe(col, ht, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := SemiJoin(col, ht, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Pos, ref.Pos) {
		t.Fatal("fallback SemiJoin disagrees with HashProbe")
	}
}

func TestSemiJoinBitsetDetectsCorruptFK(t *testing.T) {
	col, ht := semiJoinFixture(t, 1_000, 500)
	col.Corrupt(11, 1<<5)
	wantLog := NewErrorLog()
	if _, _, err := HashProbe(col, ht, nil, &Opts{Detect: true, Log: wantLog}); err != nil {
		t.Fatal(err)
	}
	gotLog := NewErrorLog()
	if _, err := SemiJoin(col, ht, nil, &Opts{Detect: true, Log: gotLog}); err != nil {
		t.Fatal(err)
	}
	if wantLog.Count() == 0 {
		t.Fatal("corruption not detected by reference")
	}
	want, err := wantLog.Positions("fk")
	if err != nil {
		t.Fatal(err)
	}
	got, err := gotLog.Positions("fk")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bitset log %v, hash-probe log %v", got, want)
	}
}

// The bench pair of the bitset change: same data, membership via the
// dense key bitset vs. the general hash probe.
func BenchmarkSemiJoinBitset(b *testing.B) {
	col, ht := semiJoinFixture(b, 1_000_000, 3_000)
	o := &Opts{Detect: true, Log: NewErrorLog()}
	if makeFKProbe(col, ht, false).keyBits == nil {
		b.Fatal("dense domain must build a bitset")
	}
	b.SetBytes(int64(col.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := SemiJoin(col, ht, nil, o)
		if err != nil {
			b.Fatal(err)
		}
		_ = sel
	}
}

func BenchmarkSemiJoinHashProbe(b *testing.B) {
	col, ht := semiJoinFixture(b, 1_000_000, 3_000)
	o := &Opts{Detect: true, Log: NewErrorLog()}
	b.SetBytes(int64(col.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, _, err := HashProbe(col, ht, nil, o)
		if err != nil {
			b.Fatal(err)
		}
		_ = sel
	}
}
