package exec

import (
	"strings"
	"testing"

	"ahead/internal/an"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

func testTables(t *testing.T) []*storage.Table {
	t.Helper()
	tb := storage.NewTable("t")
	v, err := storage.NewColumn("v", storage.TinyInt)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.NewColumn("w", storage.Int)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		v.Append(i % 50)
		w.Append(i * 100)
	}
	for _, c := range []*storage.Column{v, w} {
		if err := tb.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	return []*storage.Table{tb}
}

// sumPlan sums w where v in [10, 19].
func sumPlan(q *Query) (*ops.Result, error) {
	vCol, err := q.Col("t", "v")
	if err != nil {
		return nil, err
	}
	sel, err := ops.Filter(vCol, 10, 19, q.Opts())
	if err != nil {
		return nil, err
	}
	wCol, err := q.Col("t", "w")
	if err != nil {
		return nil, err
	}
	vec, err := ops.Gather(wCol, sel, q.Opts())
	if err != nil {
		return nil, err
	}
	vec = q.PreAggregate(vec)
	sum, err := ops.SumTotal(vec, q.Opts())
	if err != nil {
		return nil, err
	}
	return q.FinishScalar(sum)
}

func TestModeStrings(t *testing.T) {
	names := []string{"Unprotected", "DMR", "Early", "Late", "Continuous", "Reencoding"}
	for i, m := range Modes {
		if m.String() != names[i] {
			t.Errorf("mode %d = %q, want %q", i, m, names[i])
		}
	}
	if !strings.Contains(Mode(99).String(), "99") {
		t.Error("unknown mode must print its number")
	}
}

func TestNewDBRejectsDuplicates(t *testing.T) {
	tbs := testTables(t)
	if _, err := NewDB(append(tbs, tbs[0]), storage.LargestCodeChooser); err == nil {
		t.Fatal("duplicate table must error")
	}
}

func TestRunAllModesAgree(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(0)
	for i := uint64(0); i < 100; i++ {
		if i%50 >= 10 && i%50 <= 19 {
			want += i * 100
		}
	}
	for _, m := range Modes {
		res, log, err := Run(db, m, ops.Scalar, sumPlan)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if log.Count() != 0 {
			t.Fatalf("%v: spurious log entries", m)
		}
		if res.Aggs[0] != want {
			t.Fatalf("%v: sum %d, want %d", m, res.Aggs[0], want)
		}
	}
}

func TestEarlyModeDeltaCacheAndDetection(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a base value; Early's Δ must log it when the column is
	// first touched.
	db.Hardened("t").MustColumn("w").Corrupt(3, 1<<6)
	_, log, err := Run(db, EarlyOnetime, ops.Scalar, func(q *Query) (*ops.Result, error) {
		// Touch the same column twice: the Δ cache must decode once
		// (two touches, one log entry).
		if _, err := q.Col("t", "w"); err != nil {
			return nil, err
		}
		return sumPlan(q)
	})
	if err != nil {
		t.Fatal(err)
	}
	if log.Count() != 1 {
		t.Fatalf("early Δ logged %d entries, want exactly 1 (cache)", log.Count())
	}
	pos, err := log.Positions("w")
	if err != nil || len(pos) != 1 || pos[0] != 3 {
		t.Fatalf("positions %v, %v", pos, err)
	}
}

func TestLateModeDetectsOnlyAtPreAggregate(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a w value inside the filter's qualifying range (v=10..19
	// at positions 10..19 and 60..69). The Late filter on v doesn't see
	// it, but the pre-aggregation Δ over the gathered w values must.
	db.Hardened("t").MustColumn("w").Corrupt(15, 1<<8)
	_, log, err := Run(db, LateOnetime, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if log.Count() != 1 {
		t.Fatalf("late logged %d, want 1", log.Count())
	}
	// A corruption in a *filtered-out* row goes unnoticed under Late -
	// the variant's documented blind spot...
	db2, _ := NewDB(testTables(t), storage.LargestCodeChooser)
	db2.Hardened("t").MustColumn("w").Corrupt(5, 1<<8) // v=5: filtered out
	_, log2, err := Run(db2, LateOnetime, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if log2.Count() != 0 {
		t.Fatal("late mode should not scan filtered-out rows")
	}
	// ...while Continuous would not have caught it either here (w is
	// only gathered for qualifying rows), but a flip in the *filter
	// column* is caught by Continuous and missed by Late.
	db3, _ := NewDB(testTables(t), storage.LargestCodeChooser)
	db3.Hardened("t").MustColumn("v").Corrupt(30, 1<<3)
	_, logC, err := Run(db3, Continuous, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if logC.Count() != 1 {
		t.Fatalf("continuous missed filter-column flip (%d)", logC.Count())
	}
	_, logL, err := Run(db3, LateOnetime, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	if logL.Count() != 0 {
		t.Fatal("late mode must not detect filter-column flips")
	}
}

func TestReencodingChangesVectorCodes(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	var seenA uint64
	_, _, err = Run(db, ContinuousReencoding, ops.Scalar, func(q *Query) (*ops.Result, error) {
		wCol, err := q.Col("t", "w")
		if err != nil {
			return nil, err
		}
		sel, err := ops.Filter(wCol, 0, ^uint64(0), q.Opts())
		if err != nil {
			return nil, err
		}
		vec, err := ops.Gather(wCol, sel, q.Opts())
		if err != nil {
			return nil, err
		}
		re, err := q.Reencode(vec)
		if err != nil {
			return nil, err
		}
		if re.Code == nil || re.Code.A() == wCol.Code().A() {
			return nil, errReencode
		}
		seenA = re.Code.A()
		// Values survive the reencoding.
		for i := 0; i < re.Len(); i++ {
			if re.Value(i) != vec.Value(i) {
				return nil, errReencode
			}
		}
		sum, err := ops.SumTotal(re, q.Opts())
		if err != nil {
			return nil, err
		}
		return q.FinishScalar(sum)
	})
	if err != nil {
		t.Fatal(err)
	}
	if seenA == 0 {
		t.Fatal("reencoding did not run")
	}
	// The policy drops |A| by (at least) one: w hardens narrowed at
	// |D|=14, where 63877 (16 bits) -> 6717 (13 bits).
	if seenA != 6717 {
		t.Fatalf("reencoded to A=%d, want 6717", seenA)
	}
}

var errReencode = &reencodeErr{}

type reencodeErr struct{}

func (*reencodeErr) Error() string { return "reencode assertion failed" }

func TestNextSmallerPolicy(t *testing.T) {
	chain := []uint64{32417, 881, 125, 3}
	cur := an.MustNew(chain[0], 32)
	for _, want := range chain[1:] {
		next, ok := an.NextSmaller(cur)
		if !ok {
			t.Fatalf("no smaller A after %d", cur.A())
		}
		if next.A() != want {
			t.Fatalf("NextSmaller(%d) = %d, want %d", cur.A(), next.A(), want)
		}
		cur = next
	}
	if _, ok := an.NextSmaller(cur); ok {
		t.Fatal("A=3 must be the end of the chain")
	}
	// Wide accumulator codes are outside the table: no reencoding.
	if _, ok := an.NextSmaller(an.MustNew(61, 48)); ok {
		t.Fatal("48-bit codes have no published chain")
	}
}

func TestStorageBytesAndModeHelpers(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	unp := db.StorageBytes(Unprotected)
	if unp != 100*1+100*4 {
		t.Fatalf("unprotected bytes %d", unp)
	}
	if db.StorageBytes(DMR) != 2*unp {
		t.Fatal("DMR bytes")
	}
	// v in 16-bit words; w's 14-bit values narrowed into 32-bit words.
	if db.StorageBytes(Continuous) != 100*2+100*4 {
		t.Fatalf("hardened bytes %d", db.StorageBytes(Continuous))
	}
	if db.Plain("t") == nil || db.Hardened("t") == nil || db.Replica("t") == nil {
		t.Fatal("table accessors")
	}
	if !Continuous.UsesHardenedData() || Unprotected.UsesHardenedData() {
		t.Fatal("UsesHardenedData")
	}
}

func TestQueryColErrors(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes {
		_, _, err := Run(db, m, ops.Scalar, func(q *Query) (*ops.Result, error) {
			if _, err := q.Col("t", "missing"); err == nil {
				t.Errorf("%v: missing column must error", m)
			}
			if _, err := q.Dict("t", "v"); err == nil {
				t.Errorf("%v: Dict on integer column must error", m)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v: MustCol must panic", m)
					}
				}()
				q.MustCol("t", "missing")
			}()
			return sumPlan(q)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
