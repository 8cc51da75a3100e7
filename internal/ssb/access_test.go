package ssb

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"ahead/internal/exec"
	"ahead/internal/ops"
)

// TestAccessCountsPlanIndependent pins the adaptive controller's hotness
// signal to the query, not to the plan that answers it: every base
// column a query resolves counts once, at its row count, whether the
// query runs fused, materializing, re-encoding or through Early's Δ,
// serially or on a pool.
func TestAccessCountsPlanIndependent(t *testing.T) {
	s := newParallelSuite(t)
	shapes := []struct {
		name string
		mode exec.Mode
		opts []exec.RunOption
	}{
		{"continuous", exec.Continuous, nil},
		{"continuous-unfused", exec.Continuous, []exec.RunOption{exec.WithFusion(false)}},
		{"reencoding", exec.ContinuousReencoding, nil},
		{"early", exec.EarlyOnetime, nil},
	}
	for _, q := range []string{"Q1.1", "Q2.1"} {
		var ref map[string]uint64
		for _, sh := range shapes {
			for _, pooled := range []bool{false, true} {
				opts := sh.opts
				if pooled {
					opts = append(slices.Clone(opts), exec.WithPool(s.pool))
				}
				s.DB.ResetAccessCounts()
				if _, _, err := exec.Run(s.DB, sh.mode, ops.Blocked, Queries[q], opts...); err != nil {
					t.Fatalf("%s %s pooled=%v: %v", q, sh.name, pooled, err)
				}
				got := s.DB.AccessCounts()
				for key, n := range got {
					table, col, _ := strings.Cut(key, ".")
					if rows := s.DB.Plain(table).MustColumn(col).Len(); n != uint64(rows) {
						t.Errorf("%s %s pooled=%v: %s counted %d rows, the column has %d", q, sh.name, pooled, key, n, rows)
					}
				}
				if ref == nil {
					ref = got
				} else if !maps.Equal(ref, got) {
					t.Errorf("%s %s pooled=%v: counts %v differ from %v", q, sh.name, pooled, got, ref)
				}
			}
		}
	}
}
