package ssb

import (
	"testing"

	"ahead/internal/exec"
	"ahead/internal/faults"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

// newParallelSuite builds a suite over sf-0.01 data (60K lineorder rows)
// with a small-morsel pool attached, so every query splits into many
// morsels across few workers and the claiming and merge paths are
// genuinely exercised.
func newParallelSuite(t *testing.T) *Suite {
	t.Helper()
	data, err := Generate(0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := exec.NewDB(data.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	s := &Suite{DB: db, Runs: 1, Warmup: 0}
	s.pool = exec.NewPoolMorsel(4, 4096)
	t.Cleanup(s.Close)
	return s
}

// TestParallelMatchesSerialAllModes is the tentpole acceptance test:
// representative queries of all four SSB flights, under all six detection
// modes, with bit flips injected into hardened base columns so the error
// vectors are non-empty - parallel results AND detected-error positions
// must equal the serial ones exactly.
func TestParallelMatchesSerialAllModes(t *testing.T) {
	s := newParallelSuite(t)
	// Flips in a probed FK and a summed measure put entries into the
	// Continuous/Reencoding logs of every flight (DMR/Early/Late read
	// other physical copies or detect elsewhere; their serial/parallel
	// equality is still checked on results and logs).
	inj := faults.NewInjector(5)
	if _, err := inj.FlipRandom(s.DB.Hardened("lineorder").MustColumn("lo_partkey"), 10, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := inj.FlipRandom(s.DB.Hardened("lineorder").MustColumn("lo_revenue"), 10, 2); err != nil {
		t.Fatal(err)
	}
	queries := []string{"Q1.1", "Q2.1", "Q3.1", "Q4.1"}
	if err := s.VerifySerialParallel(ops.Blocked, queries); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifySerialParallel(ops.Scalar, []string{"Q2.1"}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelTMRMatchesSerial covers the seventh mode: TMR replicas as
// pool jobs must vote to the same answer as the serial three-pass run.
func TestParallelTMRMatchesSerial(t *testing.T) {
	s := newParallelSuite(t)
	sr, slog, err := exec.Run(s.DB, exec.TMR, ops.Blocked, Queries["Q2.1"])
	if err != nil {
		t.Fatal(err)
	}
	pr, plog, err := exec.Run(s.DB, exec.TMR, ops.Blocked, Queries["Q2.1"], exec.WithPool(s.pool))
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Equal(pr) {
		t.Fatalf("parallel TMR result diverges (%d vs %d rows)", pr.Rows(), sr.Rows())
	}
	if !slog.Equal(plog) {
		t.Fatal("parallel TMR error log diverges from serial")
	}
}

// TestParallelFaultAttributedToGlobalRow proves the error-vector merge
// invariant end to end: a flip placed inside a *later* morsel must be
// reported at its global row position, identically by the serial and the
// morsel-parallel run.
func TestParallelFaultAttributedToGlobalRow(t *testing.T) {
	s := newParallelSuite(t)
	morsel := s.pool.MorselSize()
	fk := s.DB.Hardened("lineorder").MustColumn("lo_partkey")
	pos := 5*morsel + 123 // deep inside the sixth morsel
	if pos >= fk.Len() {
		t.Fatalf("test data too small: %d rows, need > %d", fk.Len(), pos)
	}
	inj := faults.NewInjector(9)
	if _, err := inj.FlipAt(fk, pos, 2); err != nil {
		t.Fatal(err)
	}

	_, slog, err := exec.Run(s.DB, exec.Continuous, ops.Blocked, Queries["Q2.1"])
	if err != nil {
		t.Fatal(err)
	}
	_, plog, err := exec.Run(s.DB, exec.Continuous, ops.Blocked, Queries["Q2.1"], exec.WithPool(s.pool))
	if err != nil {
		t.Fatal(err)
	}
	for name, log := range map[string]*ops.ErrorLog{"serial": slog, "parallel": plog} {
		got, err := log.Positions("lo_partkey")
		if err != nil {
			t.Fatalf("%s log: %v", name, err)
		}
		if len(got) != 1 || got[0] != uint64(pos) {
			t.Fatalf("%s run attributed the flip to %v, want [%d]", name, got, pos)
		}
	}
	if !slog.Equal(plog) {
		t.Fatal("serial and parallel logs diverge")
	}
}

// TestWithParallelismTransientPool covers a one-shot pool: a run on a
// freshly built default-morsel pool must produce the serial answer.
func TestWithParallelismTransientPool(t *testing.T) {
	s := newParallelSuite(t)
	sr, _, err := exec.Run(s.DB, exec.Continuous, ops.Blocked, Queries["Q1.1"])
	if err != nil {
		t.Fatal(err)
	}
	pr, _, err := exec.Run(s.DB, exec.Continuous, ops.Blocked, Queries["Q1.1"], exec.WithPool(exec.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Equal(pr) {
		t.Fatal("run on a one-shot pool diverges from serial")
	}
}

// TestMeasurementsJSON sanity-checks the CI timing artifact shape.
func TestMeasurementsJSON(t *testing.T) {
	ms := []Measurement{{Query: "Q1.1", Mode: exec.Continuous, Flavor: ops.Blocked, Nanos: 12.5, Rows: 1, Workers: 4}}
	data, err := MeasurementsJSON(ms)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"Q1.1"`, `"Continuous"`, `"blocked"`, `"workers": 4`} {
		if !contains(string(data), want) {
			t.Fatalf("artifact %s missing %s", data, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
