package exec

import (
	"slices"
	"sort"
)

// Per-column access accounting. Each base column a query resolves on its
// primary replica (Query.Col) counts once per query, at the column's row
// count, toward a counter keyed "table.column" - so the signal depends on
// the query, not on whether its plan runs fused, materializing,
// re-encoding or on a pool. The adaptive controller (internal/adapt)
// reads these counters as its hotness signal and the denominator of its
// detection rate: hot columns are worth the storage overhead of a
// stronger code, cold clean columns can be demoted to a cheap residue
// sidecar.

// countAccess records the query's resolution of table.column unless the
// query has already counted that column.
func (q *Query) countAccess(table, column string, rows int) {
	col := [2]string{table, column}
	if slices.Contains(q.counted, col) {
		return
	}
	q.counted = append(q.counted, col)
	q.db.noteAccess(table+"."+column, rows)
}

// noteAccess adds rows to the counter of key. Zero or negative row
// counts are dropped so error paths don't pollute the signal.
func (db *DB) noteAccess(key string, rows int) {
	if rows <= 0 {
		return
	}
	db.accessMu.Lock()
	db.access[key] += uint64(rows)
	db.accessMu.Unlock()
}

// AccessCounts returns a snapshot of the per-column access counters,
// keyed "table.column".
func (db *DB) AccessCounts() map[string]uint64 {
	db.accessMu.Lock()
	defer db.accessMu.Unlock()
	out := make(map[string]uint64, len(db.access))
	for k, v := range db.access {
		out[k] = v
	}
	return out
}

// ResetAccessCounts zeroes the counters and returns the snapshot taken
// at that instant. The adaptive controller calls this once per tick so
// each tick sees the traffic of its own window.
func (db *DB) ResetAccessCounts() map[string]uint64 {
	db.accessMu.Lock()
	defer db.accessMu.Unlock()
	out := db.access
	db.access = make(map[string]uint64, len(out))
	return out
}

// HotColumns returns the access-counter keys sorted by descending count
// (ties broken by name) - a convenience for status endpoints.
func (db *DB) HotColumns() []string {
	counts := db.AccessCounts()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
