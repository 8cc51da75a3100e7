package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ahead/internal/ops"
	"ahead/internal/storage"
)

// countdownCtx reports cancellation from its n-th Err call on, so a test
// can stop a run at an exact context check - here, between two morsels
// of a Δ pass - without racing a goroutine against the pool.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestEarlyReleasesDeltaBuffersOnEveryExit is the arena contract of the
// Early path: the Δ buffers are borrowed while the plan runs and are
// back when Run returns - whether it completed, failed in the plan
// after the first Δ, panicked, or was cancelled between or inside Δ
// passes.
func TestEarlyReleasesDeltaBuffersOnEveryExit(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPoolMorsel(4, 8) // 100 rows: 13 morsels per Δ
	defer pool.Close()
	before := ops.LiveScratch()
	balanced := func(what string) {
		t.Helper()
		if got := ops.LiveScratch(); got != before {
			t.Fatalf("%s: %d live scratch buffers before, %d after", what, before, got)
		}
	}

	held := int64(0)
	if _, _, err := Run(db, EarlyOnetime, ops.Blocked, func(q *Query) (*ops.Result, error) {
		if _, err := q.Col("t", "v"); err != nil {
			return nil, err
		}
		held = ops.LiveScratch() - before
		return sumPlan(q)
	}); err != nil {
		t.Fatal(err)
	}
	if held != 1 {
		t.Fatalf("one Δ-softened column held %d arena buffers during the run, want 1", held)
	}
	balanced("completed run")

	boom := errors.New("plan failed")
	if _, _, err := Run(db, EarlyOnetime, ops.Scalar, func(q *Query) (*ops.Result, error) {
		if _, err := q.Col("t", "v"); err != nil {
			return nil, err
		}
		return nil, boom
	}, WithPool(pool)); !errors.Is(err, boom) {
		t.Fatalf("plan error lost: %v", err)
	}
	balanced("plan error after the first Δ")

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MustCol on a missing column must panic")
			}
		}()
		_, _, _ = Run(db, EarlyOnetime, ops.Scalar, func(q *Query) (*ops.Result, error) {
			q.MustCol("t", "v")
			q.MustCol("t", "missing")
			return nil, nil
		})
	}()
	balanced("plan panic after the first Δ")

	ctx, cancel := context.WithCancel(context.Background())
	if _, _, err := Run(db, EarlyOnetime, ops.Blocked, func(q *Query) (*ops.Result, error) {
		if _, err := q.Col("t", "v"); err != nil {
			return nil, err
		}
		cancel()
		_, err := q.Col("t", "w")
		return nil, err
	}, WithPool(pool), WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled between two Δ passes: %v", err)
	}
	balanced("cancelled between two Δ passes")

	// Err calls: Run's entry, the Δ's entry, then one per morsel - the
	// sixth lands inside the first Δ.
	for i := 0; i < 50; i++ {
		_, _, err := Run(db, EarlyOnetime, ops.Blocked, sumPlan, WithPool(pool), WithContext(newCountdownCtx(5)))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled mid-Δ: %v", err)
		}
	}
	balanced("cancelled mid-Δ")
}

// TestEarlyDeltaIsPerQuery: every run verifies the base column again -
// a flip planted between two runs is seen by the second - and the pooled
// Δ logs what the serial one logs, AN and residue columns alike.
func TestEarlyDeltaIsPerQuery(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ResidueHardenColumn("t", "v", 16); err != nil {
		t.Fatal(err)
	}
	pool := NewPoolMorsel(4, 8)
	defer pool.Close()

	_, log, err := Run(db, EarlyOnetime, ops.Blocked, sumPlan)
	if err != nil || log.Count() != 0 {
		t.Fatalf("clean run: %d detections, %v", log.Count(), err)
	}
	for _, r := range []int{0, 7, 8, 55, 99} {
		db.Hardened("t").MustColumn("w").Corrupt(r, 1<<5)
	}
	db.Hardened("t").MustColumn("v").Corrupt(42, 1)
	for _, fl := range []ops.Flavor{ops.Scalar, ops.Blocked} {
		_, serial, err := Run(db, EarlyOnetime, fl, sumPlan)
		if err != nil {
			t.Fatal(err)
		}
		if w, _ := serial.Positions("w"); len(w) != 5 || w[0] != 0 || w[4] != 99 {
			t.Fatalf("%v: second run saw w flips at %v", fl, w)
		}
		if v, _ := serial.Positions("v"); len(v) != 1 || v[0] != 42 {
			t.Fatalf("%v: second run saw residue flips at %v", fl, v)
		}
		_, pooled, err := Run(db, EarlyOnetime, fl, sumPlan, WithPool(pool))
		if err != nil {
			t.Fatal(err)
		}
		if !pooled.Equal(serial) {
			t.Fatalf("%v: pooled Early log %v, serial %v", fl, pooled.Entries(), serial.Entries())
		}
	}
}

// TestRunReleasesLeasedOutputsOnEveryExit is the same contract for the
// other query-lifetime borrow: the position and value vectors the
// materializing operators hand a plan stay in the arena while the plan
// runs and are back when Run returns - completed, failed, panicked,
// cancelled between or inside operators - for every replica of every
// mode, while the Result and a Capture stay valid afterwards.
func TestRunReleasesLeasedOutputsOnEveryExit(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPoolMorsel(4, 8) // 100 rows: 13 morsels per operator
	defer pool.Close()
	before := ops.LiveScratch()
	balanced := func(what string) {
		t.Helper()
		if got := ops.LiveScratch(); got != before {
			t.Fatalf("%s: %d live scratch buffers before, %d after", what, before, got)
		}
	}
	want, _, err := Run(db, Unprotected, ops.Scalar, sumPlan)
	if err != nil {
		t.Fatal(err)
	}
	balanced("reference run")

	// filterThen runs the first operator of sumPlan, then next.
	filterThen := func(next func(q *Query) (*ops.Result, error)) QueryFunc {
		return func(q *Query) (*ops.Result, error) {
			if _, err := ops.Filter(q.MustCol("t", "v"), 10, 19, q.Opts()); err != nil {
				return nil, err
			}
			return next(q)
		}
	}
	boom := errors.New("plan failed")
	for _, mode := range []Mode{Unprotected, DMR, TMR, LateOnetime, Continuous, ContinuousReencoding} {
		for _, opts := range [][]RunOption{nil, {WithPool(pool)}} {
			id := mode.String()
			if opts != nil {
				id += "/pooled"
			}
			var held atomic.Int64
			var capt Capture
			got, _, err := Run(db, mode, ops.Blocked, filterThen(func(q *Query) (*ops.Result, error) {
				held.Store(ops.LiveScratch() - before)
				return sumPlan(q)
			}), append(opts, WithCapture(&capt))...)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if held.Load() < 1 {
				t.Fatalf("%s: the selection a plan holds kept %d arena buffers, want at least 1", id, held.Load())
			}
			balanced(id + ": completed run")
			// The arena is reused by the next run; what the first returned
			// must not change under it.
			if _, _, err := Run(db, mode, ops.Blocked, sumPlan, opts...); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: result %v changed after its run, want %v", id, got.Aggs, want.Aggs)
			}
			if r, err := ops.ScalarResult(capt.Aggs, false, nil); err != nil || !r.Equal(want) {
				t.Fatalf("%s: captured aggregate %v (%v) after the run, want %v", id, capt.Aggs, err, want.Aggs)
			}

			if _, _, err := Run(db, mode, ops.Blocked, filterThen(func(*Query) (*ops.Result, error) { return nil, boom }), opts...); !errors.Is(err, boom) {
				t.Fatalf("%s: plan error lost: %v", id, err)
			}
			balanced(id + ": plan error after an operator")

			if opts == nil { // a panicking pool job would take the process down: serial only
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s: MustCol on a missing column must panic", id)
						}
					}()
					_, _, _ = Run(db, mode, ops.Blocked, filterThen(func(q *Query) (*ops.Result, error) {
						q.MustCol("t", "missing")
						return nil, nil
					}))
				}()
				balanced(id + ": plan panic after an operator")
			}

			ctx, cancel := context.WithCancel(context.Background())
			if _, _, err := Run(db, mode, ops.Blocked, filterThen(func(q *Query) (*ops.Result, error) {
				cancel()
				return sumPlan(q)
			}), append(opts, WithContext(ctx))...); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled between two operators: %v", id, err)
			}
			balanced(id + ": cancelled between two operators")

			// Every Err call from the third to the thirtieth: inside the
			// first Filter's morsels, between operators, inside Gather.
			for n := int64(2); n < 30; n++ {
				if _, _, err := Run(db, mode, ops.Blocked, sumPlan, append(opts, WithContext(newCountdownCtx(n)))...); err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: cancelled at check %d: %v", id, n, err)
				}
				balanced(fmt.Sprintf("%s: cancelled at context check %d", id, n))
			}
		}
	}
}
