package ops

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ahead/internal/an"
	"ahead/internal/storage"
)

// probeOracle is the FK probe by definition, one row at a time: soften
// the FK into the build table's plain key domain, report a corrupted one
// at its probe row (Continuous) or drop it silently (Late), and look the
// key up in a Go map standing in for the build table. It returns the
// surviving rows and, aligned with them, the matched build positions.
func probeOracle(fk *storage.Column, keys map[uint64]uint32, detect bool, rows []uint64, log *ErrorLog) (out []uint64, matches []uint32) {
	for _, r := range rows {
		v := fk.Get(int(r))
		if fk.Code() != nil {
			d, ok := fk.Check(v)
			if !ok {
				if detect {
					log.Record(fk.Name(), r)
				}
				continue
			}
			v = d
		}
		if bp, hit := keys[v]; hit {
			out, matches = append(out, r), append(matches, bp)
		}
	}
	return out, matches
}

// TestDifferentialProbe holds every driver of the one FK probe to
// probeOracle: {SemiJoin, HashProbe, the fused Q1 pass, the fused
// cascade with the probed dimension contributing a group attribute and
// as a pure semijoin} x {dense build keys -> membership bitset, one key
// at 2^22 -> hash table} x {plain FK, hardened FK without and with
// detection} x selection {none, plain, hardened} x single-bit FK flips,
// serial and goroutine-per-morsel. Survivors, matched build positions,
// aggregates and error-log entries must be equal.
func TestDifferentialProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 2*fusedBlockRows + 77
	const sparseKey = maxKeyBitsetBits // first key the bitset refuses

	// Build side: every third key of [0, 600), build position = insertion
	// order; the sparse variant adds one far key that rows do reference.
	domains := map[string][]uint64{"bitset": nil, "table": {sparseKey}}
	for name := range domains {
		var ks []uint64
		for k := uint64(0); k < 600; k += 3 {
			ks = append(ks, k)
		}
		domains[name] = append(ks, domains[name]...)
	}
	fkVals := make([]uint64, n)
	pick := make([]uint64, n) // 1 on the rows of the selection
	var subset []uint64
	for i := range fkVals {
		fkVals[i] = uint64(rng.Intn(600))
		if i%53 == 0 {
			fkVals[i] = sparseKey
		}
		if i%3 != 1 {
			pick[i] = 1
			subset = append(subset, uint64(i))
		}
	}
	measVals, unitVals := make([]uint64, n), make([]uint64, n)
	for i := range measVals {
		measVals[i], unitVals[i] = uint64(rng.Intn(1<<20)), 1
	}
	meas := intColumn(t, "meas", measVals)
	unit := intColumn(t, "unit", unitVals) // turns Q1's sum-product into a sum of meas
	pickCol := tinyColumn(t, "pick", pick)
	ones := tinyColumn(t, "one", make([]uint64, n)) // second FK: all rows hit key 0
	oneHT := buildTestHT(0)
	oneAttr := tinyColumn(t, "one_attr", []uint64{9})

	selPlain := &Sel{Pos: subset}
	selHard := &Sel{Hardened: true, Pos: make([]uint64, len(subset))}
	for i, p := range subset {
		selHard.Pos[i] = PosCode.Encode(p)
	}
	runners := map[string]Parallel{"serial": nil, "pooled": goMorsels{morsel: 1000}}

	before := LiveScratch()
	for dname, ks := range domains {
		ht := buildTestHT(ks...)
		keys := make(map[uint64]uint32, len(ks))
		attrVals := make([]uint64, len(ks))
		for bp, k := range ks {
			keys[k] = uint32(bp)
			attrVals[bp] = uint64(bp % 11)
		}
		attr := tinyColumn(t, "attr", attrVals)
		if dense := makeFKProbe(meas, ht, false).keyBits != nil; dense != (dname == "bitset") {
			t.Fatalf("%s build table: dense index = %v", dname, dense)
		}

		plainFK := intColumn(t, "fk", fkVals)
		hardFK := harden(t, plainFK, code32)
		flips := plantFlips(rng, hardFK)
		for _, mode := range []struct {
			name   string
			fk     *storage.Column
			detect bool
		}{{"plain", plainFK, false}, {"late", hardFK, false}, {"continuous", hardFK, true}} {
			for rname, par := range runners {
				id := fmt.Sprintf("%s/%s/%s", dname, mode.name, rname)
				opts := func(log *ErrorLog) *Opts {
					return &Opts{Detect: mode.detect, HardenIDs: mode.detect, Flavor: Blocked, Log: log, Par: par}
				}
				for _, in := range []*Sel{nil, selPlain, selHard} {
					rows, sname := allRows(n), "sel=nil"
					if in != nil {
						rows, sname = subset, fmt.Sprintf("sel hardened=%v", in.Hardened)
					}
					wantLog := NewErrorLog()
					wantRows, wantMatches := probeOracle(mode.fk, keys, mode.detect, rows, wantLog)
					if mode.detect && in == nil && wantLog.Count() != flips {
						t.Fatalf("%s: oracle found %d of %d single-bit FK flips", id, wantLog.Count(), flips)
					}

					log := NewErrorLog()
					semi, err := SemiJoin(mode.fk, ht, in, opts(log))
					if err != nil {
						t.Fatal(err)
					}
					if got := plainPositions(t, semi); !reflect.DeepEqual(got, wantRows) || !log.Equal(wantLog) {
						t.Fatalf("%s %s SemiJoin: %d survivors / log %v, oracle %d / %v", id, sname, len(got), log.Entries(), len(wantRows), wantLog.Entries())
					}
					log = NewErrorLog()
					probed, matches, err := HashProbe(mode.fk, ht, in, opts(log))
					if err != nil {
						t.Fatal(err)
					}
					if got := plainPositions(t, probed); !reflect.DeepEqual(got, wantRows) || !reflect.DeepEqual(matches, wantMatches) || !log.Equal(wantLog) {
						t.Fatalf("%s %s HashProbe: %d survivors / log %v, oracle %d / %v", id, sname, len(got), log.Entries(), len(wantRows), wantLog.Entries())
					}
					if in != nil && (semi.Hardened != in.Hardened || probed.Hardened != in.Hardened) {
						t.Fatalf("%s %s: output selection lost the input's hardening", id, sname)
					}
					if in != nil && in.Hardened {
						continue // the fused passes scan the table; one selection form suffices
					}

					// The fused passes see the selection as a predicate on
					// the marker column. Expected aggregates follow from
					// the oracle's survivors.
					var preds []RangePred
					if in != nil {
						preds = []RangePred{{Col: pickCol, Lo: 1, Hi: 1}}
					}
					var wantSum uint64
					byAttr := map[uint64]uint64{}
					for i, r := range wantRows {
						wantSum += measVals[r]
						byAttr[attrVals[wantMatches[i]]] += measVals[r]
					}

					log = NewErrorLog()
					rev, err := FusedFilterSemiSumProduct(preds, mode.fk, ht, meas, unit, opts(log))
					if err != nil {
						t.Fatal(err)
					}
					if rev.Value(0) != wantSum || !log.Equal(wantLog) {
						t.Fatalf("%s %s fused Q1: sum %d / log %v, oracle %d / %v", id, sname, rev.Value(0), log.Entries(), wantSum, wantLog.Entries())
					}

					log = NewErrorLog()
					groups, sums, err := FusedProbeGroupSum(preds, []FusedJoin{{FK: mode.fk, HT: ht, Attr: attr}}, meas, opts(log))
					if err != nil {
						t.Fatal(err)
					}
					got := map[uint64]uint64{}
					for g, tuple := range groups {
						got[tuple[0]] = sums.Value(g)
					}
					if !reflect.DeepEqual(got, byAttr) || !log.Equal(wantLog) {
						t.Fatalf("%s %s cascade with Attr: groups %v / log %v, oracle %v / %v", id, sname, got, log.Entries(), byAttr, wantLog.Entries())
					}

					log = NewErrorLog()
					groups, sums, err = FusedProbeGroupSum(preds, []FusedJoin{{FK: mode.fk, HT: ht}, {FK: ones, HT: oneHT, Attr: oneAttr}}, meas, opts(log))
					if err != nil {
						t.Fatal(err)
					}
					if len(groups) != 1 || groups[0][0] != 9 || sums.Value(0) != wantSum || !log.Equal(wantLog) {
						t.Fatalf("%s %s cascade semijoin: groups %v sum %v / log %v, oracle %d / %v", id, sname, groups, sums.Vals, log.Entries(), wantSum, wantLog.Entries())
					}
				}
			}
		}
	}
	if got := LiveScratch(); got != before {
		t.Fatalf("scratch leak: %d live buffers before, %d after", before, got)
	}
}

// cascadeOracle is one join stage of the fused cascade by definition,
// one selected row at a time: probeOracle's FK rule, then - with attr -
// the attribute at the matched build position: a corrupted one is
// reported at its build position and drops the row (Continuous), or
// logs into the vec: namespace at the fact row and keeps what it decodes
// to (Late). It returns the measure sum per attribute value (per 0
// without attr).
func cascadeOracle(fk *storage.Column, keys map[uint64]uint32, attr *storage.Column, detect bool, rows, meas []uint64, log *ErrorLog) map[uint64]uint64 {
	out := map[uint64]uint64{}
	for _, r := range rows {
		hit, matches := probeOracle(fk, keys, detect, []uint64{r}, log)
		if len(hit) == 0 {
			continue
		}
		var av uint64
		if attr != nil {
			av = attr.Get(int(matches[0]))
			if code := attr.Code(); code != nil {
				d, ok := code.Check(av)
				if !ok {
					if detect {
						log.Record(attr.Name(), uint64(matches[0]))
						continue
					}
					log.Record(VecLogName(attr.Name()), r)
				}
				av = d
			}
		}
		out[av] += meas[r]
	}
	return out
}

// kindColumn builds a plain column of the given kind.
func kindColumn(t *testing.T, name string, kind storage.Kind, vals []uint64) *storage.Column {
	t.Helper()
	c, err := storage.NewColumn(name, kind)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		c.Append(v)
	}
	return c
}

// pickShapes marks the rows of the shaped selection: in block 0 the
// words cycle full / 22 bits / full / 4 bits (the dense form, the dense
// form behind a mask, the sparse form - each with bits 0 and 63 set and
// bit 1 clear where the word is not full), block 1 keeps every 13th row
// (below bitmapSelThreshold: a list), later blocks keep everything.
func pickShapes(r int) bool {
	blk, rel := r/fusedBlockRows, r%fusedBlockRows
	switch blk {
	case 0:
		switch b := rel % 64; rel / 64 % 4 {
		case 1:
			return b%3 == 0
		case 3:
			return b%21 == 0
		}
		return true
	case 1:
		return rel%13 == 0
	}
	return true
}

// TestDifferentialProbeKernels holds the typed FK probe kernels to the
// per-row oracles across what the width dispatch and the selection
// shapes can vary: FK storage widths u8/u16/u32/u64 x {plain, hardened
// without and with detection} x {dense keys -> bitset (+ position array
// for attribute joins), a key at 2^22 -> table} x {attribute join, pure
// semijoin} x selection {none: full words, the shaped bitmap of
// pickShapes (full, >=16-bit and 1-15-bit words, a list block), a
// ragged last block of 1/63/65 rows, probeRange with sel nil / plain /
// hardened} x single-bit FK flips at word bits 0 and 63, at rows the
// selection excludes (read by the dense form, never logged), beside an
// attribute flip in the same 64-row word (entries in fact-row order) x
// valid keys just above keyMax and far beyond the bitset (clamped, never
// indexed) x an offset key domain near 19 920 101 - keys every third of
// [base, base+600), FK values below keyMin too (wrapping onto the pad
// bit), a hardened FK stored from its own frame of reference - and
// apart from the loop a hardened FK whose largest valid key lies below
// keyMin (no bitset). Positions, matches, group sums and log entries
// must equal the oracle, serial and goroutine-per-morsel.
func TestDifferentialProbeKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type subject struct {
		name   string
		kind   storage.Kind // Str: a dictionary column over "00".."15"
		code   *an.Code     // nil: plain
		k      uint64       // dense keys are base + every third of [0, k)
		far    uint64       // a storable value far above them
		sparse bool         // the column can store base+maxKeyBitsetBits
		base   uint64       // the key domain's offset; FK rows also fall below it
	}
	subjects := []subject{
		{"plain/u8", storage.TinyInt, nil, 200, 255, false, 0},
		{"plain/u16", storage.ShortInt, nil, 600, 65535, false, 0},
		{"plain/u32", storage.Int, nil, 600, 1 << 31, true, 0},
		{"plain/u64", storage.BigInt, nil, 600, 1 << 40, true, 0},
		{"hardened/u8", storage.Str, an.MustNew(13, 4), 13, 15, false, 0},
		{"hardened/u16", storage.TinyInt, code8, 200, 255, false, 0},
		{"hardened/u32", storage.ShortInt, an.MustNew(63877, 16), 600, 65535, false, 0},
		{"hardened/u64", storage.Int, code32, 600, 1 << 31, true, 0},
		// The offset domain: the same shapes around yyyymmdd dates. A
		// hardened FK stores v-min under a 24-bit code.
		{"offset/plain/u32", storage.Int, nil, 600, 1 << 31, true, dateBase},
		{"offset/plain/u64", storage.BigInt, nil, 600, 1 << 40, true, dateBase},
		{"offset/hardened/u32", storage.Int, an.MustNew(233, 24), 600, dateBase + 1<<23, true, dateBase},
		{"offset/hardened/u64", storage.Int, an.MustNew(63877, 24), 600, dateBase + 1<<23, true, dateBase},
	}
	runners := map[string]Parallel{"serial": nil, "pooled": goMorsels{morsel: 1000}}
	oneHT := buildTestHT(0)
	oneAttr := tinyColumn(t, "one_attr", []uint64{9})

	before := LiveScratch()
	for _, s := range subjects {
		for _, ragged := range []int{1, 63, 65} {
			n := 2*fusedBlockRows + ragged
			keyMax := s.base + (s.k-1)/3*3
			sparseKey := s.base + maxKeyBitsetBits // the first key the bitset refuses
			attrKey := s.base + 3                  // build position 1: the attribute the test corrupts
			fkVals := make([]uint64, n)
			measVals := make([]uint64, n)
			pick := make([]uint64, n)
			var subset []uint64
			for r := range fkVals {
				fkVals[r] = s.base + uint64(rng.Intn(int(s.k)))
				switch {
				case r%53 == 0 && s.sparse:
					fkVals[r] = sparseKey
				case r%59 == 0:
					fkVals[r] = keyMax + 1
				case r%61 == 0:
					fkVals[r] = s.far
				case r%67 == 0 && s.base != 0:
					fkVals[r] = s.base - 1 - uint64(r%5) // below keyMin
				}
				measVals[r] = uint64(rng.Intn(1 << 20))
				if pickShapes(r) {
					pick[r] = 1
					subset = append(subset, uint64(r))
				}
			}
			// Rows that reach the corrupted attribute: in a full word, a
			// masked dense word, a sparse word, the list block.
			for _, r := range []int{2*64 + 5, 64 + 3, 3*64 + 21, fusedBlockRows + 13*5} {
				fkVals[r] = attrKey
			}
			var plainFK *storage.Column
			if s.kind == storage.Str {
				strs := make([]string, n)
				for r, v := range fkVals {
					strs[r] = fmt.Sprintf("%02d", v)
				}
				for v := 0; v < 16; v++ { // the whole dictionary, so code == value
					strs[n-2-v] = fmt.Sprintf("%02d", v)
					fkVals[n-2-v] = uint64(v)
				}
				plainFK = storage.NewStrColumn("fk", strs)
			} else {
				plainFK = kindColumn(t, "fk", s.kind, fkVals)
			}
			fk := plainFK
			flips := 0
			if s.code != nil {
				fk = harden(t, plainFK, s.code)
				if (fk.Base() != 0) != (s.base != 0) {
					t.Fatalf("%s: FK hardened from base %d", s.name, fk.Base())
				}
				for _, r := range []int{
					2 * 64, 2*64 + 63, 2*64 + 40, // a full word: bits 0 and 63, and one behind the attribute row
					64, 64 + 63, 64 + 1, // a masked dense word: bits 0, 63, and excluded bit 1
					3 * 64, 3*64 + 63, 3*64 + 1, // a sparse word, likewise
					fusedBlockRows + 13*7, fusedBlockRows + 13*7 + 1, // the list block: selected, excluded
					n - 1,
				} {
					fk.Corrupt(r, 1<<(uint(r)%s.code.CodeBits()))
					flips++
				}
			}
			if want := fmt.Sprintf("u%d", 8*fk.Width()); !strings.HasSuffix(s.name, "/"+want) {
				t.Fatalf("%s: FK stored as %s", s.name, want)
			}
			meas := intColumn(t, "meas", measVals)
			unit := intColumn(t, "unit", func() []uint64 {
				u := make([]uint64, n)
				for i := range u {
					u[i] = 1
				}
				return u
			}())
			pickCol := tinyColumn(t, "pick", pick)
			ones := tinyColumn(t, "one", make([]uint64, n))
			selPlain := &Sel{Pos: subset}
			selHard := &Sel{Hardened: true, Pos: make([]uint64, len(subset))}
			for i, p := range subset {
				selHard.Pos[i] = PosCode.Encode(p)
			}

			for _, dname := range []string{"bitset", "table"} {
				var ks []uint64
				for k := uint64(0); k < s.k; k += 3 {
					ks = append(ks, s.base+k)
				}
				if dname == "table" {
					ks = append(ks, sparseKey)
				}
				ht := buildTestHT(ks...)
				keys := make(map[uint64]uint32, len(ks))
				attrVals := make([]uint64, len(ks))
				for bp, k := range ks {
					keys[k] = uint32(bp)
					attrVals[bp] = uint64(bp % 11)
				}
				plainAttr := tinyColumn(t, "attr", attrVals)

				type probeMode struct {
					name   string
					detect bool
				}
				modes, attr := []probeMode{{"plain", false}}, plainAttr
				if s.code != nil {
					modes = []probeMode{{"late", false}, {"continuous", true}}
					attr = harden(t, plainAttr, code8)
					attr.Corrupt(int(keys[attrKey]), 1<<3)
				}
				probe := makeFKProbe(fk, ht, true)
				if dense := probe.keyBits != nil; dense != (dname == "bitset") || (probe.keyPos != nil) != dense {
					t.Fatalf("%s/%s: dense index %v, position array %v", s.name, dname, dense, probe.keyPos != nil)
				}
				probe.release()

				for _, mode := range modes {
					for rname, par := range runners {
						id := fmt.Sprintf("%s/%s/%s/%s/ragged=%d", s.name, dname, mode.name, rname, ragged)
						opts := func(log *ErrorLog) *Opts {
							return &Opts{Detect: mode.detect, HardenIDs: mode.detect, Flavor: Blocked, Log: log, Par: par}
						}
						for _, in := range []*Sel{nil, selPlain, selHard} {
							rows, sname := allRows(n), "sel=nil"
							if in != nil {
								rows, sname = subset, fmt.Sprintf("sel hardened=%v", in.Hardened)
							}
							wantLog := NewErrorLog()
							wantRows, wantMatches := probeOracle(fk, keys, mode.detect, rows, wantLog)
							if mode.detect && in == nil && wantLog.Count() != flips {
								t.Fatalf("%s: oracle found %d of %d single-bit FK flips", id, wantLog.Count(), flips)
							}
							if mode.detect && in != nil && wantLog.Count() >= flips {
								t.Fatalf("%s: no planted flip lies outside the selection", id)
							}

							log := NewErrorLog()
							semi, err := SemiJoin(fk, ht, in, opts(log))
							if err != nil {
								t.Fatal(err)
							}
							if got := plainPositions(t, semi); !reflect.DeepEqual(got, wantRows) || !log.Equal(wantLog) {
								t.Fatalf("%s %s SemiJoin: %d survivors / log %v, oracle %d / %v", id, sname, len(got), log.Entries(), len(wantRows), wantLog.Entries())
							}
							log = NewErrorLog()
							probed, matches, err := HashProbe(fk, ht, in, opts(log))
							if err != nil {
								t.Fatal(err)
							}
							if got := plainPositions(t, probed); !reflect.DeepEqual(got, wantRows) || !reflect.DeepEqual(matches, wantMatches) || !log.Equal(wantLog) {
								t.Fatalf("%s %s HashProbe: %d survivors / log %v, oracle %d / %v", id, sname, len(got), log.Entries(), len(wantRows), wantLog.Entries())
							}
							if in != nil && in.Hardened {
								continue // the fused passes scan the table; one selection form suffices
							}

							var preds []RangePred
							if in != nil {
								preds = []RangePred{{Col: pickCol, Lo: 1, Hi: 1}}
							}
							var wantSum uint64
							for _, r := range wantRows {
								wantSum += measVals[r]
							}
							log = NewErrorLog()
							rev, err := FusedFilterSemiSumProduct(preds, fk, ht, meas, unit, opts(log))
							if err != nil {
								t.Fatal(err)
							}
							if rev.Value(0) != wantSum || !log.Equal(wantLog) {
								t.Fatalf("%s %s fused Q1: sum %d / log %v, oracle %d / %v", id, sname, rev.Value(0), log.Entries(), wantSum, wantLog.Entries())
							}

							log = NewErrorLog()
							groups, sums, err := FusedProbeGroupSum(preds, []FusedJoin{{FK: fk, HT: ht}, {FK: ones, HT: oneHT, Attr: oneAttr}}, meas, opts(log))
							if err != nil {
								t.Fatal(err)
							}
							if len(wantRows) > 0 && (len(groups) != 1 || groups[0][0] != 9 || sums.Value(0) != wantSum) || !log.Equal(wantLog) {
								t.Fatalf("%s %s cascade semijoin: groups %v sums %v / log %v, oracle %d / %v", id, sname, groups, sums.Vals, log.Entries(), wantSum, wantLog.Entries())
							}

							wantLog = NewErrorLog()
							byAttr := cascadeOracle(fk, keys, attr, mode.detect, rows, measVals, wantLog)
							log = NewErrorLog()
							groups, sums, err = FusedProbeGroupSum(preds, []FusedJoin{{FK: fk, HT: ht, Attr: attr}}, meas, opts(log))
							if err != nil {
								t.Fatal(err)
							}
							got := map[uint64]uint64{}
							for g, tuple := range groups {
								got[tuple[0]] = sums.Value(g)
							}
							if !reflect.DeepEqual(got, byAttr) || !log.Equal(wantLog) {
								t.Fatalf("%s %s cascade with Attr: groups %v / log %v, oracle %v / %v", id, sname, got, log.Entries(), byAttr, wantLog.Entries())
							}
							if wantCols := map[string][]string{"late": {"vec:attr"}, "continuous": {"attr", "fk"}}[mode.name]; !reflect.DeepEqual(wantLog.Columns(), wantCols) {
								t.Fatalf("%s %s: oracle logged columns %v, want %v: a planted flip was never reached", id, sname, wantLog.Columns(), wantCols)
							}
						}
					}
				}
			}
		}
	}
	offsetBelowKeys(t, runners)
	if got := LiveScratch(); got != before {
		t.Fatalf("scratch leak: %d live buffers before, %d after", before, got)
	}
}

// dateBase is the offset key domain of the probe tests: the first SSB
// date key.
const dateBase = 19920101

// offsetBelowKeys is TestDifferentialProbeKernels' case of hardened FKs
// whose domain [base, base+dmax] ends short of the build keys: below the
// smallest, no softened word can form a bitset index, so the probe takes
// the table and matches nothing; inside them, the clamp is base+dmax
// (not keyMax) and the bit just above it is a set key bit, which a
// corrupted word - it softens above dmax - must never read. Either way
// the result and the log equal the oracle, and every flip is logged
// under detection.
func offsetBelowKeys(t *testing.T, runners map[string]Parallel) {
	t.Helper()
	n := fusedBlockRows + 5
	for _, start := range []uint64{dateBase - 1<<20, dateBase - 100} {
		vals := make([]uint64, n)
		for r := range vals {
			vals[r] = start + uint64(r%200)
		}
		vals[1] = start + 255 // the top of the 8-bit domain
		fk := harden(t, kindColumn(t, "fk", storage.Int, vals), code8)
		if lo, hi := fk.Domain(); lo != start || hi != start+255 {
			t.Fatalf("FK domain [%d, %d], want [%d, %d]", lo, hi, start, start+255)
		}
		for _, r := range []int{0, 63, 64 + 7, n - 1} {
			fk.Corrupt(r, 1<<(uint(r)%16))
		}
		var ks []uint64
		for k := uint64(0); k < 600; k++ {
			ks = append(ks, dateBase+k)
		}
		ht := buildTestHT(ks...)
		keys := make(map[uint64]uint32, len(ks))
		for bp, k := range ks {
			keys[k] = uint32(bp)
		}
		below := start+255 < dateBase
		probe := makeFKProbe(fk, ht, true)
		if (probe.keyBits == nil) != below {
			t.Fatalf("start %d: dense index %v", start, probe.keyBits != nil)
		}
		if !below {
			if c := narrowFK[uint16](&probe); c.clamp != start+255-dateBase || c.bits[(c.clamp+1)>>6]>>((c.clamp+1)&63)&1 == 0 {
				t.Fatalf("start %d: clamp %d, the bit above it clear", start, c.clamp)
			}
		}
		probe.release()
		for _, detect := range []bool{false, true} {
			for rname, par := range runners {
				wantLog := NewErrorLog()
				wantRows, wantMatches := probeOracle(fk, keys, detect, allRows(n), wantLog)
				if below != (len(wantRows) == 0) || (detect && wantLog.Count() != 4) {
					t.Fatalf("start %d oracle: %d matches, %d flips logged", start, len(wantRows), wantLog.Count())
				}
				opts := &Opts{Detect: detect, Flavor: Blocked, Par: par}
				log := NewErrorLog()
				opts.Log = log
				semi, err := SemiJoin(fk, ht, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := plainPositions(t, semi); !slices.Equal(got, wantRows) || !log.Equal(wantLog) {
					t.Fatalf("start %d/%s detect=%v SemiJoin: %d survivors, log %v, oracle %d / %v", start, rname, detect, len(got), log.Entries(), len(wantRows), wantLog.Entries())
				}
				log = NewErrorLog()
				opts.Log = log
				probed, matches, err := HashProbe(fk, ht, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := plainPositions(t, probed); !slices.Equal(got, wantRows) || !slices.Equal(matches, wantMatches) || !log.Equal(wantLog) {
					t.Fatalf("start %d/%s detect=%v HashProbe: %d survivors, log %v", start, rname, detect, len(got), log.Entries())
				}
				log = NewErrorLog()
				opts.Log = log
				var wantSum uint64
				for range wantRows {
					wantSum++
				}
				ones := intColumn(t, "one", func() []uint64 {
					u := make([]uint64, n)
					for i := range u {
						u[i] = 1
					}
					return u
				}())
				rev, err := FusedFilterSemiSumProduct(nil, fk, ht, ones, ones, opts)
				if err != nil {
					t.Fatal(err)
				}
				if rev.Value(0) != wantSum || !log.Equal(wantLog) {
					t.Fatalf("start %d/%s detect=%v fused Q1: %d rows, log %v, oracle %d / %v", start, rname, detect, rev.Value(0), log.Entries(), wantSum, wantLog.Entries())
				}
			}
		}
	}
}
