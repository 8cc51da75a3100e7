package ssb

import (
	"strings"
	"testing"

	"ahead/internal/cluster"
	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

func TestSuiteMeasureAndRelatives(t *testing.T) {
	// Each measurement is the fastest of five runs (Suite.Measure), so
	// one run slowed by a loaded machine cannot break the DMR bound below.
	suite, data, err := NewSuite(0.003, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if data.Lineorder.Rows() != 18000 {
		t.Fatalf("rows %d", data.Lineorder.Rows())
	}
	m, err := suite.Measure("Q1.1", exec.Continuous, ops.Blocked)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nanos <= 0 {
		t.Fatal("non-positive runtime")
	}
	if _, err := suite.Measure("Q9.9", exec.Continuous, ops.Scalar); err == nil {
		t.Fatal("unknown query must error")
	}

	// A reduced RunAll across three queries via direct Measure calls,
	// then the relative/averaging pipeline.
	var ms []Measurement
	for _, q := range []string{"Q1.1", "Q1.2"} {
		for _, mode := range exec.Modes {
			meas, err := suite.Measure(q, mode, ops.Scalar)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, meas)
		}
	}
	rel := RelativeRuntimes(ms)
	if rel["Q1.1"][exec.Unprotected] != 1.0 {
		t.Fatalf("baseline must be 1.0, got %v", rel["Q1.1"][exec.Unprotected])
	}
	for _, q := range []string{"Q1.1", "Q1.2"} {
		for _, mode := range exec.Modes {
			v := rel[q][mode]
			if v <= 0 || v > 100 {
				t.Fatalf("%s/%v relative runtime %v implausible", q, mode, v)
			}
		}
	}
	avg := AverageRelative(rel)
	if avg[exec.Unprotected] != 1.0 {
		t.Fatalf("average baseline %v", avg[exec.Unprotected])
	}
	// DMR must cost roughly double; allow generous slack on tiny data
	// and shared machines.
	if avg[exec.DMR] < 1.2 {
		t.Errorf("DMR average %v, expected ~2x", avg[exec.DMR])
	}

	var sb strings.Builder
	PrintRelativeTable(&sb, rel, ops.Scalar)
	outStr := sb.String()
	if !strings.Contains(outStr, "Q1.1") || !strings.Contains(outStr, "Continuous") {
		t.Fatalf("table output missing fields:\n%s", outStr)
	}

	stor := suite.StorageRelative()
	if stor[exec.Unprotected] != 1.0 || stor[exec.DMR] != 2.0 {
		t.Fatalf("storage relatives %v", stor)
	}
	if stor[exec.Continuous] <= 1.0 || stor[exec.Continuous] >= 2.1 {
		t.Fatalf("AHEAD storage relative %v", stor[exec.Continuous])
	}
}

func TestSuiteWithMinBFWChooser(t *testing.T) {
	// The Figure 8 sweep: hardening with the smallest A per minimum
	// bit-flip weight still yields correct results.
	for _, bfw := range []int{1, 2, 3} {
		suite, _, err := NewShardSuite(0.002, 7, 1, cluster.ShardSpec{}, storage.MinBFWCodeChooser(bfw))
		if err != nil {
			t.Fatalf("bfw=%d: %v", bfw, err)
		}
		ref, _, err := exec.Run(suite.DB, exec.Unprotected, ops.Scalar, Queries["Q1.1"])
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := exec.Run(suite.DB, exec.Continuous, ops.Scalar, Queries["Q1.1"])
		if err != nil {
			t.Fatalf("bfw=%d: %v", bfw, err)
		}
		if !ref.Equal(got) {
			t.Fatalf("bfw=%d: Q1.1 differs under continuous", bfw)
		}
	}
}

func TestSpeedupMeasurement(t *testing.T) {
	suite, _, err := NewSuite(0.002, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := suite.SpeedupScalarOverVectorized()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range exec.Modes {
		if sp[m] <= 0 {
			t.Fatalf("speedup for %v = %v", m, sp[m])
		}
	}
}
