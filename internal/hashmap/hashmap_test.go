package hashmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	m := New(0)
	if _, ok := m.Get(42); ok {
		t.Fatal("empty map must miss")
	}
	m.Put(42, 1)
	m.Put(43, 2)
	m.Put(42, 3) // overwrite
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	if v, ok := m.Get(42); !ok || v != 3 {
		t.Fatalf("Get(42) = %d,%v", v, ok)
	}
	if v, ok := m.Get(43); !ok || v != 2 {
		t.Fatalf("Get(43) = %d,%v", v, ok)
	}
}

func TestGrowthKeepsEntries(t *testing.T) {
	m := New(0)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		m.Put(i*2654435761, uint32(i))
	}
	if m.Len() != n {
		t.Fatalf("len = %d", m.Len())
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := m.Get(i * 2654435761); !ok || v != uint32(i) {
			t.Fatalf("lost key %d: %d,%v", i, v, ok)
		}
	}
	// Load factor is respected after growth.
	if m.Len()*10 > m.Cap()*7 {
		t.Fatalf("over-loaded: %d entries in %d slots", m.Len(), m.Cap())
	}
}

func TestGetOrInsert(t *testing.T) {
	m := New(4)
	v, inserted := m.GetOrInsert(7, 100)
	if !inserted || v != 100 {
		t.Fatalf("first insert = %d,%v", v, inserted)
	}
	v, inserted = m.GetOrInsert(7, 200)
	if inserted || v != 100 {
		t.Fatalf("second insert = %d,%v, want existing 100", v, inserted)
	}
	// Dense group-id assignment pattern.
	ids := make(map[uint64]uint32)
	next := uint32(0)
	for _, k := range []uint64{5, 9, 5, 13, 9, 5} {
		got, ins := m.GetOrInsert(k, next)
		if ins {
			ids[k] = next
			next++
		}
		if want := ids[k]; got != want {
			t.Fatalf("group id for %d = %d, want %d", k, got, want)
		}
	}
}

func TestRange(t *testing.T) {
	m := New(0)
	for i := uint64(0); i < 100; i++ {
		m.Put(i, uint32(i*3))
	}
	seen := make(map[uint64]uint32)
	m.Range(func(k uint64, v uint32) bool {
		seen[k] = v
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("range visited %d entries", len(seen))
	}
	for k, v := range seen {
		if v != uint32(k*3) {
			t.Fatalf("entry %d = %d", k, v)
		}
	}
	count := 0
	m.Range(func(k uint64, v uint32) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestQuickAgainstStdlibMap(t *testing.T) {
	f := func(keys []uint64, vals []uint32) bool {
		m := New(0)
		ref := make(map[uint64]uint32)
		for i, k := range keys {
			v := uint32(i)
			if i < len(vals) {
				v = vals[i]
			}
			m.Put(k, v)
			ref[k] = v
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := m.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAdversarialCollisions(t *testing.T) {
	// Keys colliding to the same initial slot exercise the probe chain.
	// The table is sized so that 20 keys never grow it.
	m := New(20)
	base := uint64(0xDEADBEEF)
	var keys []uint64
	for k := base; len(keys) < 20; k++ {
		if m.home(k) == m.home(base) {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		m.Put(k, uint32(i))
	}
	for i, k := range keys {
		if v, ok := m.Get(k); !ok || v != uint32(i) {
			t.Fatalf("collision chain lost key %d", i)
		}
	}
	if m.Cap() != 32 {
		t.Fatalf("table grew to %d slots; the keys no longer share a home", m.Cap())
	}
}

// TestPackedKeysSpread pins the slot choice on the group keys the fused
// sink packs, a | b<<16 | c<<32: 150 of them (Q3.1's shape, 5 x 5 x 6)
// in a table sized for 1024 must each sit within a few slots of its
// home. A slot taken from the low bits of the hash sees only a - five
// homes for 150 keys, a chain of about 30 slots per home.
func TestPackedKeysSpread(t *testing.T) {
	m := New(1024)
	for a := uint64(0); a < 5; a++ {
		for b := uint64(0); b < 5; b++ {
			for c := uint64(0); c < 6; c++ {
				m.Put(a|b<<16|c<<32, uint32(m.Len()))
			}
		}
	}
	worst := 0
	for i, u := range m.used {
		if !u {
			continue
		}
		if d := int((uint64(i) - m.home(m.keys[i])) & m.mask); d > worst {
			worst = d
		}
	}
	if m.Len() != 150 || worst > 4 {
		t.Fatalf("%d keys in %d slots, longest probe distance %d (want <= 4)", m.Len(), m.Cap(), worst)
	}
}

func BenchmarkPut(b *testing.B) {
	keys := make([]uint64, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	b.Run("open-addressing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := New(len(keys))
			for j, k := range keys {
				m.Put(k, uint32(j))
			}
		}
	})
	b.Run("stdlib-map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := make(map[uint64]uint32, len(keys))
			for j, k := range keys {
				m[k] = uint32(j)
			}
		}
	})
}

func BenchmarkGet(b *testing.B) {
	keys := make([]uint64, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	m := New(len(keys))
	ref := make(map[uint64]uint32, len(keys))
	for j, k := range keys {
		m.Put(k, uint32(j))
		ref[k] = uint32(j)
	}
	b.Run("open-addressing", func(b *testing.B) {
		var sink uint32
		for i := 0; i < b.N; i++ {
			v, _ := m.Get(keys[i&(len(keys)-1)])
			sink += v
		}
		_ = sink
	})
	b.Run("stdlib-map", func(b *testing.B) {
		var sink uint32
		for i := 0; i < b.N; i++ {
			sink += ref[keys[i&(len(keys)-1)]]
		}
		_ = sink
	})
}
