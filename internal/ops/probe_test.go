package ops

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

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
		if code := fk.Code(); code != nil {
			d, ok := code.Check(v)
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
