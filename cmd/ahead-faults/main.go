// Command ahead-faults runs bit-flip injection campaigns against hardened
// columns and compares empirical detection rates with the analytic SDC
// probabilities of Appendix C - the experimental closure the paper leaves
// implicit ("all experiments are conducted without error induction,
// because the conditional SDC probabilities are known").
//
//	ahead-faults                 # campaign over the Table 1 codes, 8-bit data
//	ahead-faults -trials 500000  # tighter confidence
//	ahead-faults -k 16           # 16-bit data (analytic reference is slower)
//
// The campaign is CI-gateable: it exits nonzero when any flip of weight
// within a code's guaranteed minimum bit-flip weight goes silent (a hard
// invariant), and when an empirical silent-corruption rate exceeds its
// analytic bound by more than the statistical tolerance (z standard
// errors of the binomial estimate plus -slack).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"ahead/internal/an"
	"ahead/internal/faults"
	"ahead/internal/sdc"
	"ahead/internal/storage"
)

func main() {
	k := flag.Uint("k", 8, "data width (8 or 16)")
	trials := flag.Int("trials", 200000, "injections per (A, weight) cell")
	seed := flag.Int64("seed", 1, "injector seed")
	slack := flag.Float64("slack", 0.001, "absolute tolerance on top of the analytic bound")
	z := flag.Float64("z", 4, "binomial standard errors allowed above the analytic rate")
	flag.Parse()

	// Validate up front: bad flags must fail here with a usage error,
	// not deep inside the campaign after minutes of injections.
	fail := func(msg string) {
		fmt.Fprintln(os.Stderr, "ahead-faults:", msg)
		flag.Usage()
		os.Exit(2)
	}
	if *k != 8 && *k != 16 {
		fail(fmt.Sprintf("-k must be 8 or 16, got %d", *k))
	}
	if *trials < 1 {
		fail(fmt.Sprintf("-trials must be positive, got %d", *trials))
	}
	if *slack < 0 || *z < 0 {
		fail("-slack and -z must be non-negative")
	}

	if err := run(*k, *trials, *seed, *slack, *z); err != nil {
		fmt.Fprintln(os.Stderr, "ahead-faults:", err)
		os.Exit(1)
	}
}

func run(k uint, trials int, seed int64, slack, z float64) error {
	kind, err := storage.KindForBits(k)
	if err != nil {
		return err
	}
	fmt.Printf("== Detection-rate campaigns, %d-bit data, %d injections per cell ==\n", k, trials)
	fmt.Printf("%-10s %-8s", "A", "min bfw")
	maxWeight := 6
	for w := 1; w <= maxWeight; w++ {
		fmt.Printf("%14s", fmt.Sprintf("silent@w=%d", w))
	}
	fmt.Println()

	var violations []string
	for bfw := 1; bfw <= 4; bfw++ {
		a, ok := an.SuperA(k, bfw)
		if !ok {
			continue
		}
		code, err := an.New(a, k)
		if err != nil {
			return err
		}
		col, err := storage.NewColumn("v", kind)
		if err != nil {
			return err
		}
		// The analytic rates average over the whole data domain, so the
		// column spans all of it: 4096 rows cover only 12 of 16 bits.
		for i := 0; i < max(4096, 1<<k); i++ {
			col.Append(uint64(i) & code.MaxData())
		}
		hard, err := col.Harden(code)
		if err != nil {
			return err
		}
		analytic, err := sdc.ExactAN(a, k)
		if err != nil {
			return err
		}
		probs := analytic.Probabilities()
		inj := faults.NewInjector(seed + int64(bfw))
		fmt.Printf("%-10d %-8d", a, bfw)
		for w := 1; w <= maxWeight; w++ {
			res, err := faults.Campaign(hard, inj, trials, w)
			if err != nil {
				return err
			}
			empirical := float64(res.Undetected) / float64(res.Trials)
			fmt.Printf("%7.4f/%.4f", empirical, probs[w])
			if res.Undetected > 0 && w <= bfw {
				return fmt.Errorf("guarantee broken: A=%d weight %d silent", a, w)
			}
			// Statistical gate: the empirical rate may ride above the
			// analytic one only by sampling noise.
			tol := z*math.Sqrt(probs[w]*(1-probs[w])/float64(trials)) + slack
			if empirical > probs[w]+tol {
				violations = append(violations, fmt.Sprintf(
					"A=%d weight %d: empirical silent rate %.5f exceeds analytic %.5f + tolerance %.5f",
					a, w, empirical, probs[w], tol))
			}
		}
		fmt.Println()
	}
	fmt.Println("\n(each cell: empirical/analytic silent rate; zeros up to the")
	fmt.Println(" guaranteed weight are a hard invariant, checked on every run)")
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "ahead-faults: BOUND EXCEEDED:", v)
		}
		return fmt.Errorf("%d empirical rates exceeded their analytic bounds", len(violations))
	}
	return nil
}
