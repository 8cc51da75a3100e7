package ops

import (
	"reflect"
	"testing"

	"ahead/internal/an"
	"ahead/internal/hashmap"
)

// reencodeOpts are the operator options of the ContinuousReencoding
// variant: continuous detection plus the staging-vector re-encoding.
func reencodeOpts(log *ErrorLog) *Opts {
	return &Opts{Detect: true, HardenIDs: true, Reencode: true, Log: log}
}

// TestReencodeStagedFlipAttribution feeds the measure step of both
// fused sinks - the Q1 sum-product and the grouped sum - a staged word
// flipped after it was re-encoded: the read-back logs it under
// vec:<measure> at its fact row and drops the row. A flipped base word
// at the same fact row is instead logged under the base column by the
// staging and never reaches the read-back. Either way the row's group
// still appears, and the sum is exactly the other rows' total under
// A*'s widened code.
func TestReencodeStagedFlipAttribution(t *testing.T) {
	rev := []uint64{10, 20, 30, 40, 50, 60, 70, 80}
	disc := []uint64{1, 2, 3, 1, 2, 3, 1, 2}
	pos := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	const row = 5
	for _, tc := range []struct {
		name      string
		flipBase  bool
		stageWant []ErrorEntry
		readWant  []ErrorEntry
	}{
		{"staged", false, nil, []ErrorEntry{{"vec:lo_revenue", PosCode.Encode(row)}}},
		{"base", true, []ErrorEntry{{"lo_revenue", PosCode.Encode(row)}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			revC := harden(t, intColumn(t, "lo_revenue", rev), code32)
			discC := harden(t, tinyColumn(t, "lo_discount", disc), code8)
			if tc.flipBase {
				revC.Corrupt(row, 1<<9)
			}
			// measure runs the measure step over pos with a flip between
			// staging and read-back, checking both stage logs.
			measure := func(what string, m fusedMeasures) (av, bv []uint64) {
				t.Helper()
				if !m.re || m.ra.code.A() >= code32.A() {
					t.Fatalf("fixture vacuous: A*=%d is not smaller than A=%d", m.ra.code.A(), code32.A())
				}
				m.aBuf, m.bBuf = make([]uint64, fusedBlockRows), make([]uint64, fusedBlockRows)
				stageKL, readKL := &keyedLog{log: NewErrorLog()}, &keyedLog{log: NewErrorLog()}
				av, bv = m.stage(pos, stageKL)
				if !tc.flipBase {
					av[row] ^= 1 << 7
				}
				m.recheck(pos, av, bv, readKL)
				for _, c := range []struct {
					step string
					kl   *keyedLog
					want []ErrorEntry
				}{{"staging", stageKL, tc.stageWant}, {"read-back", readKL, tc.readWant}} {
					if got := c.kl.log.Entries(); !reflect.DeepEqual(got, c.want) && len(got)+len(c.want) > 0 {
						t.Fatalf("%s %s logged %v, want %v", what, c.step, got, c.want)
					}
					if len(c.kl.keys) != c.kl.log.Count() {
						t.Fatalf("%s %s left entries without merge keys", what, c.step)
					}
				}
				return av, bv
			}

			// Q1: sum(lo_revenue*lo_discount).
			m, err := makeFusedMeasures(revC, discC, true, reencodeOpts(nil))
			if err != nil {
				t.Fatal(err)
			}
			av, bv := measure("Q1", m)
			q1 := fusedSink{k: m.k}
			q1.add(0, pos, av, bv)
			acc, err := wideCode(m.sumCode)
			if err != nil {
				t.Fatal(err)
			}
			var want uint64
			for i := range rev {
				if i != row {
					want += rev[i] * disc[i]
				}
			}
			if d, ok := acc.Check(q1.part.sum); !ok || d != want {
				t.Fatalf("Q1 sum decodes to %d (ok=%v) under A*, want %d", d, ok, want)
			}

			// Grouped: sum(lo_revenue) by a key that gives the flipped
			// row a group of its own.
			if m, err = makeFusedMeasures(revC, nil, false, reencodeOpts(nil)); err != nil {
				t.Fatal(err)
			}
			av, bv = measure("grouped", m)
			key := make([]uint16, fusedBlockRows)
			key[row] = 1
			g := fusedSink{attrBufs: [][]uint16{key}, nAttrs: 1, k: m.k, ht: hashmap.New(16)}
			g.add(0, pos, av, bv)
			if !reflect.DeepEqual(g.part.groups, [][]uint64{{0}, {1}}) {
				t.Fatalf("groups %v, want the dropped row's group kept", g.part.groups)
			}
			want = 0
			for i := range rev {
				if i != row {
					want += rev[i]
				}
			}
			if d, ok := acc.Check(g.part.sums[0]); !ok || d != want {
				t.Fatalf("group sum decodes to %d (ok=%v) under A*, want %d", d, ok, want)
			}
			if g.part.sums[1] != 0 {
				t.Fatalf("dropped row contributed %d to its group", g.part.sums[1])
			}
		})
	}
}

// TestFusedCascadeReencoding runs the fused probe cascade under the
// Reencoding bit against the same pass under Continuous, on a fixture
// with corrupted FK, attribute and measure words: the groups and the
// decoded sums agree, the sums carry the widened next-smaller A, and
// every detection is a base-column entry in the same place and order -
// base words fail before they are re-encoded, so re-encoding adds no
// log entry of its own. Serial and pooled logs stay byte-identical.
func TestFusedCascadeReencoding(t *testing.T) {
	f := newCascadeFixture(t, 12000)
	f.fk1H.Corrupt(41, 1<<9)
	f.attr1H.Corrupt(1, 1<<2)
	f.attr3H.Corrupt(5, 1<<6)
	f.revH.Corrupt(162, 1<<11)
	f.costH.Corrupt(322, 1<<12)

	clog := NewErrorLog()
	cGroups, cont, err := FusedProbeGroupSumDiff(nil, f.joins(true), f.revH, f.costH, &Opts{Detect: true, HardenIDs: true, Log: clog})
	if err != nil {
		t.Fatal(err)
	}
	rlog := NewErrorLog()
	rGroups, reenc, err := FusedProbeGroupSumDiff(nil, f.joins(true), f.revH, f.costH, reencodeOpts(rlog))
	if err != nil {
		t.Fatal(err)
	}
	next, ok := an.NextSmaller(f.revH.Code())
	if !ok {
		t.Fatal("fixture vacuous: the measure code has no smaller A")
	}
	if reenc.Code == nil || reenc.Code.A() != next.A() {
		t.Fatalf("Reencoding sums carry %v, want the widened A*=%d", reenc.Code, next.A())
	}
	if !reflect.DeepEqual(rGroups, cGroups) {
		t.Fatalf("Reencoding groups %v != Continuous %v", rGroups, cGroups)
	}
	for g := range cont.Vals {
		if c, r := cont.Code.Decode(cont.Vals[g]), reenc.Code.Decode(reenc.Vals[g]); c != r {
			t.Fatalf("group %d: Reencoding sum %d != Continuous %d", g, r, c)
		}
	}
	if clog.Count() == 0 {
		t.Fatal("corruption was not detected; test is vacuous")
	}
	if !rlog.Equal(clog) {
		t.Fatalf("Reencoding log %v != Continuous log %v", rlog.Entries(), clog.Entries())
	}
	for _, morsel := range []int{512, 999, 5000} {
		plog := NewErrorLog()
		po := reencodeOpts(plog)
		po.Par = serialMorsels{workers: 4, morsel: morsel}
		pGroups, par, err := FusedProbeGroupSumDiff(nil, f.joins(true), f.revH, f.costH, po)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pGroups, rGroups) || !reflect.DeepEqual(par.Vals, reenc.Vals) || !plog.Equal(rlog) {
			t.Fatalf("morsel=%d: pooled Reencoding pass diverges from serial", morsel)
		}
	}
}

// TestFusedQ1Reencoding is TestFusedCascadeReencoding for the Q1 pass.
func TestFusedQ1Reencoding(t *testing.T) {
	fx := newQ1Fixture(t, 10000)
	corrupted := 0
	for i := 0; i < fx.n && corrupted < 3; i++ {
		// Rows that pass both predicates and the date semijoin.
		if d, q := i%11, (i*7)%50; d >= 1 && d <= 3 && q <= 24 && i%6 <= 2 {
			fx.priceH.Corrupt(i, 1<<uint(8+corrupted))
			corrupted++
		}
	}
	clog, rlog := NewErrorLog(), NewErrorLog()
	cont := fusedQ1(t, fx, fx.discH, fx.qtyH, fx.odH, fx.priceH, &Opts{Detect: true, HardenIDs: true, Log: clog})
	reenc := fusedQ1(t, fx, fx.discH, fx.qtyH, fx.odH, fx.priceH, reencodeOpts(rlog))
	if reenc.Code == nil || reenc.Code.A() >= cont.Code.A() {
		t.Fatalf("Reencoding sum carries %v, want a smaller A than %d", reenc.Code, cont.Code.A())
	}
	if c, r := cont.Code.Decode(cont.Vals[0]), reenc.Code.Decode(reenc.Vals[0]); c != r {
		t.Fatalf("Reencoding sum %d != Continuous %d", r, c)
	}
	if clog.Count() != corrupted || !rlog.Equal(clog) {
		t.Fatalf("Reencoding log %v, Continuous log %v: want the %d corrupted rows in both", rlog.Entries(), clog.Entries(), corrupted)
	}
	plog := NewErrorLog()
	po := reencodeOpts(plog)
	po.Par = serialMorsels{workers: 4, morsel: 999}
	if par := fusedQ1(t, fx, fx.discH, fx.qtyH, fx.odH, fx.priceH, po); par.Vals[0] != reenc.Vals[0] || !plog.Equal(rlog) {
		t.Fatal("pooled Reencoding Q1 pass diverges from serial")
	}
}
