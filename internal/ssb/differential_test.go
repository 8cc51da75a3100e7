package ssb

import (
	"fmt"
	"testing"

	"ahead/internal/an"
	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

// diffModes is the differential matrix: the four hardened detection
// variants, each crossed with serial/pooled execution and
// fused/materializing operator chains. Every variant fuses, Reencoding
// included (it re-hardens the fused kernels' staging vectors), so each
// row compares two genuinely different plan shapes.
var diffModes = []exec.Mode{exec.EarlyOnetime, exec.LateOnetime, exec.Continuous, exec.ContinuousReencoding}

// firstDivergence walks two results in row order and describes the first
// cell where they disagree, so a differential failure points at the
// exact group and column instead of dumping both result sets.
func firstDivergence(want, got *ops.Result) string {
	if want.Rows() != got.Rows() {
		return fmt.Sprintf("row count %d vs %d", want.Rows(), got.Rows())
	}
	for r := 0; r < want.Rows(); r++ {
		if len(want.Keys[r]) != len(got.Keys[r]) {
			return fmt.Sprintf("row %d: key width %d vs %d", r, len(want.Keys[r]), len(got.Keys[r]))
		}
		for c := range want.Keys[r] {
			if want.Keys[r][c] != got.Keys[r][c] {
				return fmt.Sprintf("row %d key[%d]: %d vs %d", r, c, want.Keys[r][c], got.Keys[r][c])
			}
		}
		if want.Aggs[r] != got.Aggs[r] {
			return fmt.Sprintf("row %d agg: %d vs %d", r, want.Aggs[r], got.Aggs[r])
		}
	}
	return "results identical"
}

// TestDifferentialCrossMode runs every SSB query under every hardened
// mode x {serial, pooled} x {fused, materializing} and requires each
// configuration to reproduce the unprotected reference result exactly,
// with empty and (serial vs pooled) byte-identical error logs.
func TestDifferentialCrossMode(t *testing.T) {
	data, err := Generate(0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := exec.NewDB(data.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPoolMorsel(4, 4103) // 15 morsels at SF 0.01, each boundary inside a block
	defer pool.Close()

	for _, name := range QueryNames {
		plan := Queries[name]
		ref, _, err := exec.Run(db, exec.Unprotected, ops.Blocked, plan)
		if err != nil {
			t.Fatalf("%s unprotected: %v", name, err)
		}
		for _, mode := range diffModes {
			for _, fused := range []bool{true, false} {
				var logs [2]*ops.ErrorLog
				for i, pooled := range []bool{false, true} {
					opts := []exec.RunOption{exec.WithFusion(fused)}
					if pooled {
						opts = append(opts, exec.WithPool(pool))
					}
					got, log, err := exec.Run(db, mode, ops.Blocked, plan, opts...)
					if err != nil {
						t.Fatalf("%s %v fused=%v pooled=%v: %v", name, mode, fused, pooled, err)
					}
					if !ref.Equal(got) {
						t.Fatalf("%s %v fused=%v pooled=%v diverges: %s",
							name, mode, fused, pooled, firstDivergence(ref, got))
					}
					if log.Count() != 0 {
						t.Fatalf("%s %v fused=%v pooled=%v: %d errors logged on clean data",
							name, mode, fused, pooled, log.Count())
					}
					logs[i] = log
				}
				if !logs[0].Equal(logs[1]) {
					t.Fatalf("%s %v fused=%v: serial and pooled logs differ", name, mode, fused)
				}
			}
		}
	}
}

// TestDifferentialFaultLogs injects revenue and price corruption and
// requires, under Continuous and under Reencoding detection, that (a)
// fused and materializing plans drop the same rows and produce the same
// result, (b) serial and pooled logs are byte-identical within each
// plan shape, and (c) all four configurations report the same
// corrupted positions in every base column (ErrorLog.Positions, the
// repair interface). Bit 13 lies in every code's low bits; bit 43 lies
// in lo_revenue's code word above the code bits of its next-smaller A,
// where the re-encoding multiply alone would erase the flip. Bit 50
// lies above lo_revenue's code word (|C|=47) in the 64-bit padding: no
// check sees it and no sum may, so every configuration must return the
// Unprotected reference with an empty log, and RunWithRecovery must
// answer Q3.1 under Continuous on its first attempt without a repair.
func TestDifferentialFaultLogs(t *testing.T) {
	data, err := Generate(0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPoolMorsel(4, 4103) // 15 morsels at SF 0.01, each boundary inside a block
	defer pool.Close()

	for _, tc := range []struct {
		bit       uint
		aboveNext bool // the bit lies above the code bits of A*
		padding   bool // the bit lies above the code bits of A, in the storage word
		cols      []string
		queries   []string
	}{
		{13, false, false, []string{"lo_revenue", "lo_extendedprice"}, []string{"Q1.1", "Q3.1", "Q4.1"}},
		{43, true, false, []string{"lo_revenue"}, []string{"Q3.1", "Q4.1"}},
		{50, true, true, []string{"lo_revenue"}, []string{"Q3.1", "Q4.1"}},
	} {
		db, err := exec.NewDB(data.Tables(), storage.LargestCodeChooser)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range tc.cols {
			c := db.Hardened("lineorder").MustColumn(col)
			next, ok := an.NextSmaller(c.LiftedCode())
			if tc.bit >= 8*uint(c.Width()) || tc.padding != (tc.bit >= c.Code().CodeBits()) ||
				tc.aboveNext && (!ok || tc.bit < next.CodeBits()) {
				t.Fatalf("bit %d: fixture vacuous for %s (|C|=%d)", tc.bit, col, c.Code().CodeBits())
			}
			for i := 50; i < c.Len(); i += 97 {
				c.Corrupt(i, 1<<tc.bit)
			}
		}
		for _, mode := range []exec.Mode{exec.Continuous, exec.ContinuousReencoding} {
			for _, name := range tc.queries {
				if tc.padding {
					checkPaddingFlips(t, db, pool, mode, name, tc.bit)
				} else {
					for _, log := range checkFaultLogs(t, db, pool, mode, name, tc.bit) {
						if base, _ := log.PartitionColumns(); len(base) == 0 {
							t.Fatalf("bit %d %s %v: corruption went undetected; test is vacuous", tc.bit, name, mode)
						}
					}
				}
			}
		}
		if tc.padding {
			ref, _, err := exec.Run(db, exec.Unprotected, ops.Blocked, Queries["Q3.1"])
			if err != nil {
				t.Fatal(err)
			}
			res, rep, err := exec.RunWithRecovery(db, exec.Continuous, ops.Blocked, Queries["Q3.1"])
			if err != nil {
				t.Fatalf("bit %d Q3.1 RunWithRecovery: %v", tc.bit, err)
			}
			if !ref.Equal(res) || rep.Attempts != 1 || rep.RepairedCount() != 0 || rep.Intermediate != 0 {
				t.Fatalf("bit %d Q3.1 RunWithRecovery: report %+v, result equals reference: %v", tc.bit, rep, ref.Equal(res))
			}
		}
	}
}

// checkPaddingFlips runs one query under mode on a database whose flips
// all lie above the code bits of their words, in all four plan
// configurations, and requires the Unprotected reference with an empty
// log from each.
func checkPaddingFlips(t *testing.T, db *exec.DB, pool *exec.Pool, mode exec.Mode, name string, bit uint) {
	t.Helper()
	plan := Queries[name]
	ref, _, err := exec.Run(db, exec.Unprotected, ops.Blocked, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, fused := range []bool{true, false} {
		for _, pooled := range []bool{false, true} {
			opts := []exec.RunOption{exec.WithFusion(fused)}
			if pooled {
				opts = append(opts, exec.WithPool(pool))
			}
			got, log, err := exec.Run(db, mode, ops.Blocked, plan, opts...)
			if err != nil {
				t.Fatalf("bit %d %s %v fused=%v pooled=%v: %v", bit, name, mode, fused, pooled, err)
			}
			if !ref.Equal(got) {
				t.Fatalf("bit %d %s %v fused=%v pooled=%v diverges from the reference: %s",
					bit, name, mode, fused, pooled, firstDivergence(ref, got))
			}
			if log.Count() != 0 {
				t.Fatalf("bit %d %s %v fused=%v pooled=%v: padding flips logged %v", bit, name, mode, fused, pooled, log.Entries())
			}
		}
	}
}

// checkFaultLogs runs one query under mode on a corrupted database in
// all four plan configurations, applies TestDifferentialFaultLogs'
// requirements and returns the serial fused and materializing logs.
func checkFaultLogs(t *testing.T, db *exec.DB, pool *exec.Pool, mode exec.Mode, name string, bit uint) [2]*ops.ErrorLog {
	t.Helper()
	plan := Queries[name]
	var results [2]*ops.Result
	var positions [2]string
	var serial [2]*ops.ErrorLog
	for fi, fused := range []bool{true, false} {
		var logs [2]*ops.ErrorLog
		for i, pooled := range []bool{false, true} {
			opts := []exec.RunOption{exec.WithFusion(fused)}
			if pooled {
				opts = append(opts, exec.WithPool(pool))
			}
			got, log, err := exec.Run(db, mode, ops.Blocked, plan, opts...)
			if err != nil {
				t.Fatalf("bit %d %s %v fused=%v pooled=%v: %v", bit, name, mode, fused, pooled, err)
			}
			logs[i] = log
			if results[fi] == nil {
				results[fi] = got
			} else if !results[fi].Equal(got) {
				t.Fatalf("bit %d %s %v fused=%v: pooled result diverges: %s",
					bit, name, mode, fused, firstDivergence(results[fi], got))
			}
		}
		if !logs[0].Equal(logs[1]) {
			t.Fatalf("bit %d %s %v fused=%v: serial and pooled fault logs differ (%d vs %d entries)",
				bit, name, mode, fused, logs[0].Count(), logs[1].Count())
		}
		base, _ := logs[0].PartitionColumns()
		serial[fi] = logs[0]
		for _, col := range base {
			pos, err := logs[0].Positions(col)
			if err != nil {
				t.Fatalf("bit %d %s %v fused=%v: %v", bit, name, mode, fused, err)
			}
			positions[fi] += fmt.Sprintf("%s %v\n", col, pos)
		}
	}
	if !results[0].Equal(results[1]) {
		t.Fatalf("bit %d %s %v: fused and materializing results diverge under faults: %s",
			bit, name, mode, firstDivergence(results[1], results[0]))
	}
	if positions[0] != positions[1] {
		t.Fatalf("bit %d %s %v: fused logged base-column positions\n%smaterializing\n%s",
			bit, name, mode, positions[0], positions[1])
	}
	return serial
}

// TestDifferentialDimensionFaultLogs flips the key column and one
// filter column of each dimension and applies TestDifferentialFaultLogs'
// requirements to all 13 flights under every detecting mode: equal
// results and equal base-column positions from the fused and the
// materializing plan, byte-identical serial and pooled logs. The
// flights build their dimensions one after the other, each filtered and
// then hashed; neither plan shape may detect a flip the other misses.
// Group attributes are flipped by TestDifferentialDimensionAttrFaultLogs.
func TestDifferentialDimensionFaultLogs(t *testing.T) {
	data, err := Generate(0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := exec.NewDB(data.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPoolMorsel(4, 4103) // 15 morsels at SF 0.01, each boundary inside a block
	defer pool.Close()

	const bit = 3
	for _, d := range []struct{ table, key, filter string }{
		{"customer", "c_custkey", "c_region"},
		{"supplier", "s_suppkey", "s_region"},
		{"part", "p_partkey", "p_mfgr"},
		{"date", "d_datekey", "d_yearmonthnum"},
	} {
		// The filter flips sit apart from the key flips: a row the
		// filter drops never reaches the build that checks its key.
		for ci, col := range []string{d.key, d.filter} {
			c := db.Hardened(d.table).MustColumn(col)
			if c.Code() == nil || bit >= c.Code().CodeBits() {
				t.Fatalf("bit %d: fixture vacuous for %s.%s", bit, d.table, col)
			}
			for i := 3 + 2*ci; i < c.Len(); i += 7 {
				c.Corrupt(i, 1<<bit)
			}
		}
	}
	for _, mode := range diffModes {
		detected := 0
		for _, name := range QueryNames {
			logs := checkFaultLogs(t, db, pool, mode, name, bit)
			detected += logs[0].Count() + logs[1].Count()
		}
		// Late checks only what reaches an aggregate, and neither a key
		// nor a filter column does: it must merely agree.
		if detected == 0 && mode != exec.LateOnetime {
			t.Fatalf("%v: no dimension flip detected in any flight; test is vacuous", mode)
		}
	}
}

// TestDifferentialDimensionAttrFaultLogs flips the key column and the
// group attribute of each dimension (c_nation, s_nation, p_brand1,
// d_year) and applies TestDifferentialFaultLogs' requirements to all 13
// flights under every detecting mode: equal results and equal
// base-column positions from the fused and the materializing plan,
// byte-identical serial and pooled logs. Every 3rd lo_revenue word is
// flipped too. Both shapes consume the same words - the attributes of
// rows that survive every join, every attribute of such a row, a row
// with a corrupted p_brand1 included, and the measures of every such
// row, one an attribute check drops included - so both log the same
// positions. Then one supervised Q2.1 under
// Continuous, on a database whose corrupted d_year words are exactly
// the ones the plan reads, beside the p_brand1 flips, must answer the
// clean reference, heal every word it logged, and leave no corrupted
// d_year word for DB.Scrub to find: one log names everything a repair
// has to mend.
func TestDifferentialDimensionAttrFaultLogs(t *testing.T) {
	data, err := Generate(0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := exec.NewDB(data.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPoolMorsel(4, 4103) // 15 morsels at SF 0.01, each boundary inside a block
	defer pool.Close()

	const bit = 3
	flip := func(table, col string, first, step int, only map[uint64]bool) {
		c := db.Hardened(table).MustColumn(col)
		if c.Code() == nil || bit >= c.Code().CodeBits() {
			t.Fatalf("bit %d: fixture vacuous for %s.%s", bit, table, col)
		}
		for i := first; i < c.Len(); i += step {
			if only == nil || only[uint64(i)] {
				c.Corrupt(i, 1<<bit)
			}
		}
	}
	dims := []struct{ table, key, attr string }{
		{"customer", "c_custkey", "c_nation"},
		{"supplier", "s_suppkey", "s_nation"},
		{"part", "p_partkey", "p_brand1"},
		{"date", "d_datekey", "d_year"},
	}
	for _, d := range dims {
		// The attribute flips sit apart from the key flips: a key the
		// build drops hides its row's attribute from both shapes.
		flip(d.table, d.key, 3, 7, nil)
		flip(d.table, d.attr, 5, 7, nil)
	}
	// Every 3rd measure word as well: a row an attribute check drops
	// still has its measures read and checked, by both shapes alike.
	flip("lineorder", "lo_revenue", 1, 3, nil)
	var yearsRead []uint64 // the corrupted d_year words Q2.1 reads
	for _, mode := range diffModes {
		attrs := 0
		for _, name := range QueryNames {
			logs := checkFaultLogs(t, db, pool, mode, name, bit)
			for _, d := range dims {
				pos, err := logs[1].Positions(d.attr)
				if err != nil {
					t.Fatal(err)
				}
				attrs += len(pos)
				if mode == exec.Continuous && name == "Q2.1" && d.attr == "d_year" {
					yearsRead = pos
				}
			}
		}
		// Late checks attributes only in the vec: namespace (its
		// PreAggregate Δ), so it must merely agree.
		if attrs == 0 && mode != exec.LateOnetime {
			t.Fatalf("%v: no attribute flip detected in any flight; test is vacuous", mode)
		}
	}
	if len(yearsRead) == 0 {
		t.Fatal("Q2.1 reached no flipped d_year word; the recovery check is vacuous")
	}

	if _, err := db.Scrub(); err != nil {
		t.Fatal(err)
	}
	read := make(map[uint64]bool, len(yearsRead))
	for _, p := range yearsRead {
		read[p] = true
	}
	flip("part", "p_brand1", 5, 7, nil)
	flip("date", "d_year", 5, 7, read)
	ref, _, err := exec.Run(db, exec.Unprotected, ops.Blocked, Queries["Q2.1"])
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := exec.RunWithRecovery(db, exec.Continuous, ops.Blocked, Queries["Q2.1"])
	if err != nil {
		t.Fatalf("Q2.1 RunWithRecovery: %v", err)
	}
	if !ref.Equal(res) {
		t.Fatalf("Q2.1 RunWithRecovery diverges from the reference: %s", firstDivergence(ref, res))
	}
	if got := rep.Repaired["d_year"]; len(got) != len(yearsRead) || rep.Attempts != 2 {
		t.Fatalf("Q2.1 RunWithRecovery: %d attempts, repaired d_year %v, want the %d words it reads %v",
			rep.Attempts, got, len(yearsRead), yearsRead)
	}
	healed, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if n := healed["date.d_year"]; n != 0 {
		t.Fatalf("Scrub found %d corrupted d_year words Q2.1 reads after its supervised run", n)
	}
}

// TestReencodingCaptureCode pins the code the Reencoding aggregates
// leave the engine under: the cluster wire ships captured partials
// under Capture.Aggs.Code, so the fused plan must capture exactly the
// code the materializing plan does - the widened next-smaller A of the
// measure, which differs from Continuous's (every SSB measure has a
// smaller A to re-encode to).
func TestReencodingCaptureCode(t *testing.T) {
	data, err := Generate(0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := exec.NewDB(data.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	capture := func(name string, mode exec.Mode, fused bool) *exec.Capture {
		var c exec.Capture
		if _, _, err := exec.Run(db, mode, ops.Blocked, Queries[name], exec.WithFusion(fused), exec.WithCapture(&c)); err != nil {
			t.Fatalf("%s %v fused=%v: %v", name, mode, fused, err)
		}
		if c.Aggs == nil || c.Aggs.Code == nil {
			t.Fatalf("%s %v fused=%v: no hardened aggregate captured", name, mode, fused)
		}
		return &c
	}
	for _, name := range QueryNames {
		fused := capture(name, exec.ContinuousReencoding, true)
		mat := capture(name, exec.ContinuousReencoding, false)
		f, m := fused.Aggs.Code, mat.Aggs.Code
		if f.A() != m.A() || f.DataBits() != m.DataBits() {
			t.Fatalf("%s: fused Reencoding captured A=%d/%d bits, materializing A=%d/%d bits",
				name, f.A(), f.DataBits(), m.A(), m.DataBits())
		}
		if cont := capture(name, exec.Continuous, true).Aggs.Code; cont.A() == f.A() {
			t.Fatalf("%s: Reencoding captured Continuous's A=%d; the measure was not re-encoded", name, f.A())
		}
	}
}
