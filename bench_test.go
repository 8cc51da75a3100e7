package ahead_test

// Benchmarks regenerating the paper's tables and figures with Go's
// testing.B harness. Each benchmark maps to one experiment of the
// evaluation (see DESIGN.md section 4 and EXPERIMENTS.md for paper-vs-
// measured numbers):
//
//   BenchmarkFig1And6And11_SSB    - relative SSB runtimes per mode
//   BenchmarkFig7_ScalarVsBlocked - Q1.x scalar vs blocked kernels
//   BenchmarkFig8_MinBFW          - Continuous runtime per min-bfw A
//   BenchmarkFig9_Coding          - encode/soften/detect per scheme
//   BenchmarkFig9_ANRefinedVsNaive- the Section 4.3 improvement ablation
//   BenchmarkFig10_Inverse        - multiplicative inverse computation
//   BenchmarkTable2_Distance      - distance distribution exact vs grid
//
// Ablations beyond the paper's figures (DESIGN.md section 5):
//
//   BenchmarkAblation_AccumulatorVsPerValue - §9 block-sum detection
//   BenchmarkAblation_BitPackedScan         - Fig 8b bit-packing, runtime
//   BenchmarkAblation_HashVsIndexJoin       - hardened-index join cost
//   BenchmarkFusionPerFlight                - fused vs materializing, per query
//
// The cmd/ binaries print the corresponding figure-shaped tables; these
// benches provide the `go test -bench` view of the same code paths.

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"ahead/internal/an"
	"ahead/internal/bitpack"
	"ahead/internal/coding"
	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/sdc"
	"ahead/internal/ssb"
	"ahead/internal/storage"
)

// benchDB caches one SSB database across benchmarks (generation itself is
// not the subject of any figure).
var (
	benchOnce sync.Once
	benchDB   *exec.DB
)

func ssbDB(b *testing.B) *exec.DB {
	b.Helper()
	benchOnce.Do(func() {
		data, err := ssb.Generate(0.01, 1) // 60k lineorder rows
		if err != nil {
			panic(err)
		}
		db, err := exec.NewDB(data.Tables(), storage.LargestCodeChooser)
		if err != nil {
			panic(err)
		}
		benchDB = db
	})
	return benchDB
}

// BenchmarkFusionPerFlight times every SSB query fused (the default: the
// one fused block kernel of ops, behind FusedFilterSemiSumProduct's
// scalar sink for Q1.x and FusedProbeGroupSum[Diff]'s grouped sink for
// Q2-Q4) against the materializing operator-at-a-time
// pipeline the same plan runs under exec.WithFusion(false), serial,
// blocked kernels, at SF 0.3 - the table of DESIGN.md section 5f:
//
//	go test -run '^$' -bench FusionPerFlight -benchtime 10x -count 3 .
//
// The database (1.8 M fact rows, every mode's copy) lives only for the
// duration of the benchmark.
func BenchmarkFusionPerFlight(b *testing.B) {
	data, err := ssb.Generate(0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	db, err := exec.NewDB(data.Tables(), storage.LargestCodeChooser)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []exec.Mode{exec.Unprotected, exec.LateOnetime, exec.Continuous} {
		for _, name := range ssb.QueryNames {
			for _, fused := range []bool{true, false} {
				variant := "fused"
				if !fused {
					variant = "materializing"
				}
				b.Run(mode.String()+"/"+name+"/"+variant, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, _, err := exec.Run(db, mode, ops.Blocked, ssb.Queries[name], exec.WithFusion(fused)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig1And6And11_SSB times every SSB query under every mode, in
// both kernel flavors. Relative per-query numbers (Figures 6/11) and the
// cross-query average (Figure 1a) follow from the per-mode timings;
// cmd/ahead-ssb prints them directly.
func BenchmarkFig1And6And11_SSB(b *testing.B) {
	db := ssbDB(b)
	for _, flavor := range []ops.Flavor{ops.Scalar, ops.Blocked} {
		for _, name := range ssb.QueryNames {
			plan := ssb.Queries[name]
			for _, mode := range exec.Modes {
				b.Run(flavor.String()+"/"+name+"/"+mode.String(), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, _, err := exec.Run(db, mode, flavor, plan); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig7_ScalarVsBlocked isolates the Figure 7 comparison: Q1.1 to
// Q1.3 per mode and flavor (the speedup factors are the scalar/blocked
// ratios).
func BenchmarkFig7_ScalarVsBlocked(b *testing.B) {
	db := ssbDB(b)
	for _, mode := range exec.Modes {
		for _, flavor := range []ops.Flavor{ops.Scalar, ops.Blocked} {
			b.Run(mode.String()+"/"+flavor.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, q := range []string{"Q1.1", "Q1.2", "Q1.3"} {
						if _, _, err := exec.Run(db, mode, flavor, ssb.Queries[q]); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkFig8_MinBFW sweeps the hardening strength: Q1.1 under
// Continuous with the smallest super A per guaranteed minimum bit-flip
// weight 1..4 (Figure 8a; the storage side is printed by cmd/ahead-ssb
// -fig 8).
func BenchmarkFig8_MinBFW(b *testing.B) {
	data, err := ssb.Generate(0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	for bfw := 1; bfw <= 4; bfw++ {
		db, err := exec.NewDB(data.Tables(), storage.MinBFWCodeChooser(bfw))
		if err != nil {
			b.Fatal(err)
		}
		b.Run("minbfw="+string(rune('0'+bfw)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := exec.Run(db, exec.Continuous, ops.Blocked, ssb.Queries["Q1.1"]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// codingInput produces the micro-benchmark working set: 16-bit integers,
// the data type of Section 7.1 (the paper uses ~250M values; the bench
// uses 1M per iteration and testing.B scales repetitions).
func codingInput(n int) []uint16 {
	rng := rand.New(rand.NewSource(99))
	src := make([]uint16, n)
	for i := range src {
		src[i] = uint16(rng.Uint32())
	}
	return src
}

// BenchmarkFig9_Coding compares hardening, softening and detection across
// XOR checksums, Extended Hamming and AN coding (refined), scalar and
// blocked - Figure 9's panels.
func BenchmarkFig9_Coding(b *testing.B) {
	const n = 1 << 20
	src := codingInput(n)
	xor, err := coding.NewXOR(16)
	if err != nil {
		b.Fatal(err)
	}
	anRef, err := coding.NewAN(63877, true)
	if err != nil {
		b.Fatal(err)
	}
	schemes := []coding.Scheme{xor, anRef, coding.NewHamming()}
	dst := make([]uint16, n)
	for _, s := range schemes {
		s.Resize(n)
		for _, fl := range []coding.Flavor{coding.Scalar, coding.Blocked} {
			b.Run("harden/"+s.Name()+"/"+fl.String(), func(b *testing.B) {
				b.SetBytes(int64(2 * n))
				for i := 0; i < b.N; i++ {
					s.Harden(src, fl)
				}
			})
			b.Run("soften/"+s.Name()+"/"+fl.String(), func(b *testing.B) {
				s.Harden(src, fl)
				b.SetBytes(int64(2 * n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Soften(dst, fl)
				}
			})
			b.Run("detect/"+s.Name()+"/"+fl.String(), func(b *testing.B) {
				s.Harden(src, fl)
				b.SetBytes(int64(2 * n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if bad := s.Detect(fl); bad != 0 {
						b.Fatalf("clean data flagged %d", bad)
					}
				}
			})
		}
	}
}

// BenchmarkFig9_ANRefinedVsNaive is the Section 4.3 ablation: original
// division/modulo AN coding against the multiplicative-inverse
// improvement (Figure 9 panels c/e vs g/i).
func BenchmarkFig9_ANRefinedVsNaive(b *testing.B) {
	const n = 1 << 20
	src := codingInput(n)
	dst := make([]uint16, n)
	for _, refined := range []bool{false, true} {
		s, err := coding.NewAN(63877, refined)
		if err != nil {
			b.Fatal(err)
		}
		s.Resize(n)
		s.Harden(src, coding.Scalar)
		label := "naive"
		if refined {
			label = "refined"
		}
		b.Run("soften/"+label, func(b *testing.B) {
			b.SetBytes(int64(2 * n))
			for i := 0; i < b.N; i++ {
				s.Soften(dst, coding.Scalar)
			}
		})
		b.Run("detect/"+label, func(b *testing.B) {
			b.SetBytes(int64(2 * n))
			for i := 0; i < b.N; i++ {
				if bad := s.Detect(coding.Scalar); bad != 0 {
					b.Fatal("clean data flagged")
				}
			}
		})
	}
}

// BenchmarkFig10_Inverse times multiplicative-inverse computation per
// code width |C| ∈ {7,15,31,63} with the native extended Euclid (and
// Newton for comparison), plus |C| = 127 with big-integer Euclid - the
// sweep of Figure 10.
func BenchmarkFig10_Inverse(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, width := range []uint{7, 15, 31, 63} {
		as := make([]uint64, 256)
		for i := range as {
			as[i] = (rng.Uint64() | 1) & ((1 << width) - 1)
			if as[i] < 3 {
				as[i] = 3
			}
		}
		b.Run("euclid/C="+itoa(width), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += an.InverseEuclidMod2N(as[i&255], width)
			}
			_ = sink
		})
		b.Run("newton/C="+itoa(width), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += an.InverseMod2N(as[i&255], width)
			}
			_ = sink
		})
	}
	big127 := make([]*big.Int, 64)
	for i := range big127 {
		v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 127))
		v.SetBit(v, 0, 1)
		big127[i] = v
	}
	b.Run("euclid-big/C=127", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := an.InverseBig(big127[i&63], 127); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable2_Distance times distance-distribution computation for
// A=61: exact enumeration at k=8 and k=16, and the grid estimator with
// the paper's M=1001 at k=16 (Table 2's tCPU vs tM columns; larger k via
// cmd/ahead-sdc -table 2 -k 24).
func BenchmarkTable2_Distance(b *testing.B) {
	b.Run("exact/k=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sdc.ExactAN(61, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact/k=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sdc.ExactAN(61, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grid-M=1001/k=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sdc.SampledAN(61, 16, sdc.Grid, 1001, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grid-M=101/k=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sdc.SampledAN(61, 8, sdc.Grid, 101, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_AccumulatorVsPerValue measures the Section 9
// "detection every nth code word" trade: block-sum verification against
// per-value checking.
func BenchmarkAblation_AccumulatorVsPerValue(b *testing.B) {
	code := an.MustNew(63877, 16)
	src := make([]uint32, 1<<20)
	for i := range src {
		src[i] = uint32(code.Encode(uint64(i & 0xFFFF)))
	}
	b.Run("per-value", func(b *testing.B) {
		b.SetBytes(int64(4 * len(src)))
		for i := 0; i < b.N; i++ {
			if errs := an.CheckSlice(code, src, nil); len(errs) != 0 {
				b.Fatal("clean data flagged")
			}
		}
	})
	for _, block := range []int{8, 64, 512} {
		acc, err := an.NewAccumulator(code, block)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("accum/block="+itoa(uint(block)), func(b *testing.B) {
			b.SetBytes(int64(4 * len(src)))
			for i := 0; i < b.N; i++ {
				if errs := an.CheckSliceAccum(acc, src, nil); len(errs) != 0 {
					b.Fatal("clean data flagged")
				}
			}
		})
	}
}

// BenchmarkAblation_BitPackedScan compares range scans over byte-aligned
// hardened columns against bit-packed ones (the Figure 8b storage
// optimization's runtime side).
func BenchmarkAblation_BitPackedScan(b *testing.B) {
	code := an.MustNew(29, 8) // 13-bit code words
	values := make([]uint64, 1<<20)
	for i := range values {
		values[i] = uint64(i & 0xFF)
	}
	packed, err := bitpack.Pack(values, 0, code)
	if err != nil {
		b.Fatal(err)
	}
	aligned := make([]uint16, len(values))
	for i, v := range values {
		aligned[i] = uint16(code.Encode(v))
	}
	b.Run("byte-aligned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := an.CheckSliceBlocked(code, aligned, nil)
			if len(out) != 0 {
				b.Fatal("flagged")
			}
		}
	})
	b.Run("bit-packed", func(b *testing.B) {
		var sel, errs []uint32
		for i := 0; i < b.N; i++ {
			sel, errs = packed.ScanRange(10, 19, true, sel[:0], errs[:0])
			if len(errs) != 0 {
				b.Fatal("flagged")
			}
		}
	})
}

// BenchmarkAblation_HashVsIndexJoin compares the default hash join against
// the hardened-B-tree index join.
func BenchmarkAblation_HashVsIndexJoin(b *testing.B) {
	dimKey, err := storage.NewColumn("d_key", storage.Int)
	if err != nil {
		b.Fatal(err)
	}
	const dims = 4096
	for i := 0; i < dims; i++ {
		dimKey.Append(uint64(i * 7))
	}
	fk, err := storage.NewColumn("fk", storage.Int)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1<<18; i++ {
		fk.Append(uint64(rng.Intn(dims*7) &^ 1)) // ~14% hit rate
	}
	sel := &ops.Sel{Pos: make([]uint64, dims)}
	for i := range sel.Pos {
		sel.Pos[i] = uint64(i)
	}
	ht, err := ops.HashBuild(dimKey, sel, nil)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := ops.IndexBuild(dimKey, sel, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hash-probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ops.HashProbe(fk, ht, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index-probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ops.IndexProbe(fk, tree, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func itoa(v uint) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
