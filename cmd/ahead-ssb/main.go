// Command ahead-ssb regenerates the paper's end-to-end SSB evaluation
// (Section 6): relative runtimes and storage per detection variant.
//
//	ahead-ssb -fig 1    # Figure 1: average relative runtime + storage
//	ahead-ssb -fig 6    # Figure 6: per-query relative runtimes, blocked
//	ahead-ssb -fig 7    # Figure 7: scalar vs blocked on Q1.1-Q1.3
//	ahead-ssb -fig 8    # Figure 8: min-bfw sweep (runtime + storage)
//	ahead-ssb -fig 11   # Figure 11: per-query relative runtimes, scalar
//	ahead-ssb           # all of the above
//
// -sf scales the data (1.0 = 6M lineorder rows; default 0.05 keeps a laptop
// run in seconds), -runs averages repeated executions per measurement.
//
// -parallel n runs the queries morsel-parallel on a pool of n workers
// (0 = GOMAXPROCS, 1 = serial). -compare measures every query and mode
// both serially and on the pool, prints the speedups, and verifies that
// results and detected-error logs are bit-identical - exiting nonzero on
// any divergence (the CI acceptance check). -json writes the
// measurements to a file for the benchmark artifact.
//
// -soak runs the self-healing campaign instead of the figures: all 13
// queries execute under exec.RunWithRecovery while -inject transient
// flips are placed into the hardened base data before every query. Each
// query must return the fault-free answer (detect → repair → retry);
// any wrong result, unrecoverable escalation, or unaccounted flip exits
// nonzero - the CI recovery gate.
package main

import (
	"flag"
	"fmt"
	"os"

	"ahead/internal/cluster"
	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/ssb"
	"ahead/internal/storage"
)

func main() {
	sf := flag.Float64("sf", 0.05, "SSB scale factor (1.0 = 6M lineorder rows)")
	runs := flag.Int("runs", 3, "repetitions per measurement")
	seed := flag.Int64("seed", 1, "generator seed")
	fig := flag.Int("fig", 0, "figure to regenerate (1, 6, 7, 8, 11; 0 = all)")
	par := flag.Int("parallel", 1, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	compare := flag.Bool("compare", false, "compare serial vs parallel execution and verify identical output")
	jsonPath := flag.String("json", "", "write timing measurements as JSON to this file")
	soak := flag.Bool("soak", false, "run the injection+recovery soak over all queries instead of the figures")
	inject := flag.Int("inject", 8, "soak: transient flips injected before each query")
	soakSeed := flag.Int64("soak-seed", 17, "soak: fault-injector seed")
	retries := flag.Int("retries", exec.DefaultMaxRetries, "soak: recovery retry budget per query (at least 1)")
	flag.Parse()

	if *soak && *inject < 1 {
		fmt.Fprintln(os.Stderr, "ahead-ssb: -inject must be positive")
		os.Exit(2)
	}
	if *soak && *retries < 1 {
		fmt.Fprintln(os.Stderr, "ahead-ssb: -retries must be positive")
		os.Exit(2)
	}
	if err := run(*sf, *seed, *runs, *fig, *par, *compare, *jsonPath, *soak, *inject, *soakSeed, *retries); err != nil {
		fmt.Fprintln(os.Stderr, "ahead-ssb:", err)
		os.Exit(1)
	}
}

func run(sf float64, seed int64, runs, fig, par int, compare bool, jsonPath string, soak bool, inject int, soakSeed int64, retries int) error {
	fmt.Printf("Generating SSB data at sf=%v ...\n", sf)
	suite, data, err := ssb.NewSuite(sf, seed, runs)
	if err != nil {
		return err
	}
	defer suite.Close()
	for t, n := range data.Rows() {
		fmt.Printf("  %-10s %8d rows\n", t, n)
	}
	fmt.Println()

	if soak {
		return runSoak(suite, par, inject, soakSeed, retries)
	}
	if compare {
		return runCompare(suite, par, jsonPath)
	}
	if par != 1 {
		suite.WithParallelism(par)
		fmt.Printf("Worker pool: %d workers, %d-value morsels\n\n",
			suite.Workers(), suite.Pool().MorselSize())
	}

	all := fig == 0
	if all || fig == 1 {
		if err := figure1(suite); err != nil {
			return err
		}
	}
	if all || fig == 6 {
		if err := relativeFigure(suite, ops.Blocked, "Figure 6"); err != nil {
			return err
		}
	}
	if all || fig == 11 {
		if err := relativeFigure(suite, ops.Scalar, "Figure 11"); err != nil {
			return err
		}
	}
	if all || fig == 7 {
		if err := figure7(suite); err != nil {
			return err
		}
	}
	if all || fig == 8 {
		if err := figure8(sf, seed, runs); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		ms, err := suite.RunAll(ops.Blocked)
		if err != nil {
			return err
		}
		if err := writeJSON(jsonPath, ms); err != nil {
			return err
		}
	}
	return nil
}

// runSoak drives the self-healing campaign: injection before every
// query, supervised recovery around every execution, fault-free answers
// required everywhere.
func runSoak(suite *ssb.Suite, par, inject int, soakSeed int64, retries int) error {
	if par != 1 {
		suite.WithParallelism(par)
		fmt.Printf("Worker pool: %d workers\n", suite.Workers())
	}
	fmt.Printf("== Injection + recovery soak: %d flips before each query, retry budget %d ==\n",
		inject, retries)
	results, scrubbed, err := suite.SoakRecovery(ssb.SoakConfig{
		Mode:       exec.Continuous,
		Flavor:     ops.Blocked,
		Flips:      inject,
		Seed:       soakSeed,
		MaxRetries: retries,
	})
	ssb.PrintSoakTable(os.Stdout, results, scrubbed)
	if err != nil {
		return err
	}
	repaired := 0
	wrong := 0
	for _, r := range results {
		repaired += r.Repaired
		if !r.ResultOK {
			wrong++
		}
	}
	if wrong > 0 {
		return fmt.Errorf("soak FAILED: %d of %d queries returned wrong results after recovery", wrong, len(results))
	}
	if got, want := repaired+scrubbed, inject*len(results); got != want {
		return fmt.Errorf("soak FAILED: %d injected flips but only %d accounted for (%d repaired + %d scrubbed)",
			want, got, repaired, scrubbed)
	}
	fmt.Printf("soak OK: %d queries recovered, %d positions repaired on the fly, %d swept by the final scrub\n",
		len(results), repaired, scrubbed)
	return nil
}

// runCompare measures every query under every mode serially and on the
// pool, prints the per-configuration speedup, and verifies the parallel
// results and error logs are identical to the serial ones.
func runCompare(suite *ssb.Suite, par int, jsonPath string) error {
	if par == 1 {
		return fmt.Errorf("-compare needs a worker pool; pass -parallel 0 (GOMAXPROCS) or >= 2")
	}
	serial, err := suite.RunAll(ops.Blocked)
	if err != nil {
		return err
	}
	suite.WithParallelism(par)
	fmt.Printf("== Serial vs parallel (blocked flavor, %d workers, %d-value morsels) ==\n",
		suite.Workers(), suite.Pool().MorselSize())
	parallel, err := suite.RunAll(ops.Blocked)
	if err != nil {
		return err
	}
	// RunAll emits in fixed QueryNames x Modes order, so the slices align.
	fmt.Printf("%-6s %-14s %12s %12s %9s\n", "query", "mode", "serial[ms]", "parallel[ms]", "speedup")
	for i, sm := range serial {
		pm := parallel[i]
		fmt.Printf("%-6s %-14s %12.2f %12.2f %8.2fx\n",
			sm.Query, sm.Mode.String(), sm.Nanos/1e6, pm.Nanos/1e6, sm.Nanos/pm.Nanos)
	}
	fmt.Println()
	if err := suite.VerifySerialParallel(ops.Blocked, nil); err != nil {
		return fmt.Errorf("serial/parallel verification FAILED: %w", err)
	}
	fmt.Println("verification OK: parallel results and error logs identical to serial for all queries and modes")
	if jsonPath != "" {
		return writeJSON(jsonPath, append(serial, parallel...))
	}
	return nil
}

func writeJSON(path string, ms []ssb.Measurement) error {
	data, err := ssb.MeasurementsJSON(ms)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d measurements to %s\n", len(ms), path)
	return nil
}

func figure1(suite *ssb.Suite) error {
	fmt.Println("== Figure 1: relative runtime and storage, SSB average ==")
	ms, err := suite.RunAll(ops.Blocked)
	if err != nil {
		return err
	}
	avg := ssb.AverageRelative(ssb.RelativeRuntimes(ms))
	stor := suite.StorageRelative()
	fmt.Printf("%-14s %10s %10s   (paper: runtime 1.00/2.01/1.19, storage 1.00/2.00/1.50)\n",
		"variant", "runtime", "storage")
	for _, m := range []exec.Mode{exec.Unprotected, exec.DMR, exec.Continuous} {
		fmt.Printf("%-14s %10.2f %10.2f\n", m, avg[m], stor[m])
	}
	fmt.Println()
	return nil
}

func relativeFigure(suite *ssb.Suite, flavor ops.Flavor, title string) error {
	fmt.Printf("== %s: relative SSB runtimes (%s) ==\n", title, flavor)
	ms, err := suite.RunAll(flavor)
	if err != nil {
		return err
	}
	ssb.PrintRelativeTable(os.Stdout, ssb.RelativeRuntimes(ms), flavor)
	fmt.Println()
	return nil
}

func figure7(suite *ssb.Suite) error {
	fmt.Println("== Figure 7: blocked-kernel speedup over scalar, Q1.1-Q1.3 ==")
	fmt.Println("(the paper's SSE4.2 speedups are 2.3x-5.1x; Go blocked kernels")
	fmt.Println(" preserve the ordering, not the absolute SIMD factors)")
	sp, err := suite.SpeedupScalarOverVectorized()
	if err != nil {
		return err
	}
	for _, m := range exec.Modes {
		fmt.Printf("%-14s %6.2fx\n", m, sp[m])
	}
	fmt.Println()
	return nil
}

func figure8(sf float64, seed int64, runs int) error {
	fmt.Println("== Figure 8: Q1.1 under Continuous per minimum bit-flip weight ==")
	fmt.Printf("%-8s %12s %12s %12s %12s %12s\n", "min bfw", "runtime[ms]", "rel.runtime", "rel.storage", "bit-packed", "rel.packed")
	var baseNanos, baseBytes float64
	for bfw := 0; bfw <= 4; bfw++ {
		choose := storage.LargestCodeChooser
		label := "unprot."
		if bfw > 0 {
			choose = storage.MinBFWCodeChooser(bfw)
			label = fmt.Sprintf("%d", bfw)
		}
		suite, _, err := ssb.NewShardSuite(sf, seed, runs, cluster.ShardSpec{}, choose)
		if err != nil {
			return err
		}
		mode := exec.Continuous
		if bfw == 0 {
			mode = exec.Unprotected
		}
		m, err := suite.Measure("Q1.1", mode, ops.Blocked)
		if err != nil {
			return err
		}
		bytes := float64(suite.DB.StorageBytes(mode))
		packed := float64(suite.DB.BitPackedBytes())
		if bfw == 0 {
			baseNanos, baseBytes = m.Nanos, bytes
			packed = bytes
		}
		fmt.Printf("%-8s %12.2f %12.2f %12.2f %10.2fMiB %12.2f\n",
			label, m.Nanos/1e6, m.Nanos/baseNanos, bytes/baseBytes,
			packed/(1<<20), packed/baseBytes)
	}
	fmt.Println("\n(paper: byte-aligned storage doubles for min bfw 1-3 and grows to")
	fmt.Println(" 2.26x at 4; bit-packing reduces it to 1.43x-1.61x - here measured,")
	fmt.Println(" not projected, via internal/bitpack)")
	fmt.Println()
	return nil
}
