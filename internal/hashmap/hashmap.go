// Package hashmap provides a linear-probing open-addressing hash table
// from uint64 keys to uint32 values. It stands in for the Google
// dense_hash_map the paper's prototype uses for hash join and group-by
// (Section 6.1): same data-structure class - flat arrays, power-of-two
// capacity, cache-friendly probing - so the performance character relative
// to node-based maps carries over.
package hashmap

import "math/bits"

// maxLoadNum/maxLoadDen is the resize threshold (70%).
const (
	maxLoadNum = 7
	maxLoadDen = 10
)

// U64 maps uint64 keys to uint32 values.
type U64 struct {
	keys  []uint64
	vals  []uint32
	used  []bool
	mask  uint64
	shift uint // 64 - log2(capacity): the slot is the hash's top bits
	size  int
}

// New returns a table pre-sized for about hint entries.
func New(hint int) *U64 {
	cap := uint64(16)
	for int(cap)*maxLoadNum/maxLoadDen < hint {
		cap <<= 1
	}
	m := &U64{}
	m.alloc(cap)
	return m
}

// alloc gives the table cap empty slots, cap a power of two.
func (m *U64) alloc(cap uint64) {
	m.keys = make([]uint64, cap)
	m.vals = make([]uint32, cap)
	m.used = make([]bool, cap)
	m.mask = cap - 1
	m.shift = uint(64 - bits.TrailingZeros64(cap))
	m.size = 0
}

// home is a key's first slot by Fibonacci hashing: multiplication by
// the 64-bit golden ratio, then the product's top log2(capacity) bits.
// The top bits depend on every bit of the key, so consecutive keys - the
// common case for dictionary codes and surrogate keys - and packed
// composite keys that differ only in their high fields spread across
// the table alike; the low bits of the product see only the key's low
// bits.
func (m *U64) home(k uint64) uint64 {
	return k * 0x9E3779B97F4A7C15 >> m.shift
}

// Len returns the number of stored entries.
func (m *U64) Len() int { return m.size }

// Cap returns the current slot count.
func (m *U64) Cap() int { return len(m.keys) }

// Put inserts or overwrites the value for k.
func (m *U64) Put(k uint64, v uint32) {
	if (m.size+1)*maxLoadDen > len(m.keys)*maxLoadNum {
		m.grow()
	}
	i := m.home(k)
	for m.used[i] {
		if m.keys[i] == k {
			m.vals[i] = v
			return
		}
		i = (i + 1) & m.mask
	}
	m.used[i] = true
	m.keys[i] = k
	m.vals[i] = v
	m.size++
}

// Get returns the value for k.
func (m *U64) Get(k uint64) (uint32, bool) {
	i := m.home(k)
	for m.used[i] {
		if m.keys[i] == k {
			return m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
	return 0, false
}

// GetOrInsert returns the existing value for k, or inserts v and returns
// it. inserted reports which happened. Group-by uses it to assign dense
// group ids in one probe.
func (m *U64) GetOrInsert(k uint64, v uint32) (val uint32, inserted bool) {
	if (m.size+1)*maxLoadDen > len(m.keys)*maxLoadNum {
		m.grow()
	}
	i := m.home(k)
	for m.used[i] {
		if m.keys[i] == k {
			return m.vals[i], false
		}
		i = (i + 1) & m.mask
	}
	m.used[i] = true
	m.keys[i] = k
	m.vals[i] = v
	m.size++
	return v, true
}

// Range calls fn for every entry until fn returns false. Iteration order
// is unspecified.
func (m *U64) Range(fn func(k uint64, v uint32) bool) {
	for i, u := range m.used {
		if u && !fn(m.keys[i], m.vals[i]) {
			return
		}
	}
}

func (m *U64) grow() {
	oldKeys, oldVals, oldUsed := m.keys, m.vals, m.used
	m.alloc(uint64(len(m.keys)) << 1)
	for i, u := range oldUsed {
		if u {
			m.Put(oldKeys[i], oldVals[i])
		}
	}
}
