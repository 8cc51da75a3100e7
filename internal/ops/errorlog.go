// Package ops implements the physical query operators of the AHEAD
// prototype (Section 5): filters, gathers, hash joins, group-by and
// aggregation, each available over unprotected columns and over AN-hardened
// columns with continuous per-value error detection. Hardened operators
// follow the pattern of the paper's Algorithm 1: every touched code word is
// softened with the multiplicative inverse, tested against the data-domain
// bounds, and corrupted positions are recorded in an error vector that is
// itself AN-hardened.
package ops

import (
	"fmt"
	"sort"
	"strings"

	"ahead/internal/an"
)

// PosCode is the AN code protecting array positions: error-vector entries
// and materialized virtual IDs (Section 5.2 hardens both). Positions are
// 32-bit values hardened with the strongest published 32-bit super A.
var PosCode = an.MustNew(32417, 32)

// ErrorEntry records one detected corruption: the column it was found in
// and the hardened array position.
type ErrorEntry struct {
	Column      string
	HardenedPos uint64
}

// ErrorLog is the query-wide collection of error vectors, one per column
// touched by AN-aware operators. Positions are stored hardened with
// PosCode, so the log itself tolerates bit flips.
type ErrorLog struct {
	entries []ErrorEntry
}

// NewErrorLog returns an empty log.
func NewErrorLog() *ErrorLog { return &ErrorLog{} }

// VecLogName is the error-vector name used for detections inside
// *intermediate* value vectors (as opposed to base columns). The prefix
// keeps positions within a materialized vector from aliasing base-column
// positions of the same name - repair from redundancy (exec.DB.
// RepairHardened) only acts on exact base-column entries.
func VecLogName(vec string) string { return "vec:" + vec }

// IsVecColumn reports whether a log column name lives in the vec:
// intermediate namespace. Detections there point at transient operator
// outputs: re-running the query recomputes them, so recovery retries
// without a repair step, whereas base-column entries are repaired from
// the plain replica first.
func IsVecColumn(name string) bool { return strings.HasPrefix(name, "vec:") }

// Record notes a corrupted value at plain position pos of column col.
func (l *ErrorLog) Record(col string, pos uint64) {
	l.entries = append(l.entries, ErrorEntry{Column: col, HardenedPos: PosCode.Encode(pos)})
}

// Count returns the number of recorded corruptions.
func (l *ErrorLog) Count() int { return len(l.entries) }

// Entries returns the raw hardened entries.
func (l *ErrorLog) Entries() []ErrorEntry { return l.entries }

// Positions decodes and verifies the recorded positions for one column,
// returning them sorted and deduplicated. Continuous detection records the
// same corrupted position once per operator that touches it (a filter and
// a later gather both log it); repairing from such a log must not rewrite
// positions repeatedly or inflate repair counts, so the raw entry stream
// collapses to the distinct position set here. An error is returned if the
// log itself was corrupted.
func (l *ErrorLog) Positions(col string) ([]uint64, error) {
	var out []uint64
	for _, e := range l.entries {
		if e.Column != col {
			continue
		}
		pos, ok := PosCode.Check(e.HardenedPos)
		if !ok {
			return nil, fmt.Errorf("ops: error vector for %q is itself corrupted", col)
		}
		out = append(out, pos)
	}
	if len(out) == 0 {
		return nil, nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	distinct := out[:1]
	for _, p := range out[1:] {
		if p != distinct[len(distinct)-1] {
			distinct = append(distinct, p)
		}
	}
	return distinct, nil
}

// Columns returns the distinct column names with recorded detections,
// sorted for deterministic iteration.
func (l *ErrorLog) Columns() []string {
	seen := make(map[string]bool, 4)
	var out []string
	for _, e := range l.entries {
		if !seen[e.Column] {
			seen[e.Column] = true
			out = append(out, e.Column)
		}
	}
	sort.Strings(out)
	return out
}

// PartitionColumns splits the distinct detection columns into repairable
// base columns and vec: intermediates (both sorted). The recovery loop
// repairs the former through the repair chain and merely re-executes for
// the latter.
func (l *ErrorLog) PartitionColumns() (base, vec []string) {
	for _, c := range l.Columns() {
		if IsVecColumn(c) {
			vec = append(vec, c)
		} else {
			base = append(base, c)
		}
	}
	return base, vec
}

// Merge appends all entries of other, preserving their order - the
// per-morsel and per-replica logs of parallel execution concatenate into
// the query log this way (see runMorsels for the ordering invariant).
func (l *ErrorLog) Merge(other *ErrorLog) {
	if other == nil || len(other.entries) == 0 {
		return
	}
	l.entries = append(l.entries, other.entries...)
}

// Equal reports whether two logs hold identical entry sequences - the
// serial-vs-parallel equivalence check of the tests and CI smoke run.
func (l *ErrorLog) Equal(other *ErrorLog) bool {
	if len(l.entries) != len(other.entries) {
		return false
	}
	for i, e := range l.entries {
		if e != other.entries[i] {
			return false
		}
	}
	return true
}

// Err returns a non-nil error summarizing the log when corruption was
// detected, for callers that treat any detection as query failure.
func (l *ErrorLog) Err() error {
	if len(l.entries) == 0 {
		return nil
	}
	return fmt.Errorf("ops: detected %d corrupted values during query processing", len(l.entries))
}

// Reset clears the log for reuse across queries.
func (l *ErrorLog) Reset() { l.entries = l.entries[:0] }
