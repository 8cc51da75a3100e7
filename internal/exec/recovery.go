// Self-healing query execution: the detect → repair → retry loop that
// turns AHEAD's value-granular *detection* (the paper's contribution)
// into *recovery* (the correction Section 9 sketches). A query runs under
// any hardened mode; when the error log comes back non-empty the results
// are untrusted, so the affected base columns are repaired through the
// repair chain (repair_source.go) and the query re-runs under a bounded
// retry budget. Transient flips heal on the first retry. Persistent
// (stuck-at) faults re-corrupt repaired words and exhaust the budget; a
// column the chain cannot heal at all fails sooner. Both escalate: the
// column is quarantined and the run either fails with a structured
// *UnrecoverableError or - when the caller opted in - degrades to DMR
// over the plain replicas, which a hardened-data fault cannot touch.
package exec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"ahead/internal/ops"
)

// DefaultMaxRetries is the repair-and-retry budget of RunWithRecovery:
// the number of re-executions after repair before a still-corrupt column
// is declared unrecoverable. One retry heals any transient flip; the
// second distinguishes "new flip arrived during the retry" from
// "the same word is stuck".
const DefaultMaxRetries = 2

// RecoveryOption tunes one supervised execution.
type RecoveryOption func(*recoveryCfg)

type recoveryCfg struct {
	maxRetries int
	fallback   bool
	runOpts    []RunOption
	reassert   func()
}

// WithMaxRetries sets the repair-and-retry budget (re-executions after
// the initial run; n < 0 means 0).
func WithMaxRetries(n int) RecoveryOption {
	return func(c *recoveryCfg) {
		if n < 0 {
			n = 0
		}
		c.maxRetries = n
	}
}

// WithDegradedFallback enables the escalation of last resort: when the
// retry budget is exhausted the affected columns are quarantined and the
// query re-runs once under DMR over the plain replicas - slower and
// without value-granular detection, but independent of the faulty
// hardened storage. Without the fallback, exhaustion returns a
// structured *UnrecoverableError.
func WithDegradedFallback(on bool) RecoveryOption {
	return func(c *recoveryCfg) { c.fallback = on }
}

// WithRecoveryRunOptions forwards Run options (WithPool, WithContext,
// WithFusion, ...) to every attempt, including the degraded fallback.
func WithRecoveryRunOptions(opts ...RunOption) RecoveryOption {
	return func(c *recoveryCfg) { c.runOpts = append(c.runOpts, opts...) }
}

// WithReassert installs the persistent-fault hook: it runs after every
// repair pass, before the retry. Real stuck-at cells reassert themselves
// in hardware; simulations and tests pass faults.StuckSet.Reassert here
// (wrapped in a closure) to model them. Production callers leave it nil.
func WithReassert(f func()) RecoveryOption {
	return func(c *recoveryCfg) { c.reassert = f }
}

// RecoveryReport describes what a supervised execution did.
type RecoveryReport struct {
	// Mode is the requested execution mode; FinalMode is the mode that
	// produced the returned result (DMR after a degraded fallback).
	Mode      Mode
	FinalMode Mode
	// Attempts counts query executions under Mode (1 = clean first
	// run), the stopped first attempt included: it ran only to its first
	// detecting stride, is not charged to the retry budget, and adds one
	// to the count only when a later attempt still detects (detections
	// in several strides, a stuck-at word, or a column the stopped
	// attempt could not repair). Attempts-1 is the number of full
	// re-executions. The degraded fallback run is not counted here.
	Attempts int
	// Repaired maps each base column to the distinct positions repaired
	// through the repair chain, sorted, unioned across attempts.
	Repaired map[string][]uint64
	// Intermediate counts detections in vec: intermediates - transient
	// operator-output corruption that re-execution recomputes; nothing
	// to repair.
	Intermediate int
	// Quarantined lists base columns whose corruption survived the
	// budget and were quarantined during this run, sorted.
	Quarantined []string
	// Degraded reports that the returned result came from the DMR
	// fallback over the plain replicas.
	Degraded bool
}

// RepairedCount returns the total number of distinct repaired positions
// across all columns.
func (r *RecoveryReport) RepairedCount() int {
	n := 0
	for _, ps := range r.Repaired {
		n += len(ps)
	}
	return n
}

// RepairedColumns returns the sorted base columns the run repaired.
func (r *RecoveryReport) RepairedColumns() []string {
	out := make([]string, 0, len(r.Repaired))
	for c := range r.Repaired {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Equal reports whether two reports describe the identical recovery -
// the serial-vs-parallel equivalence check: morsel-parallel execution
// must detect, repair and retry exactly as the serial run does.
func (r *RecoveryReport) Equal(other *RecoveryReport) bool {
	if r == nil || other == nil {
		return r == other
	}
	if r.Mode != other.Mode || r.FinalMode != other.FinalMode ||
		r.Attempts != other.Attempts || r.Intermediate != other.Intermediate ||
		r.Degraded != other.Degraded || len(r.Repaired) != len(other.Repaired) ||
		len(r.Quarantined) != len(other.Quarantined) {
		return false
	}
	for i, c := range r.Quarantined {
		if other.Quarantined[i] != c {
			return false
		}
	}
	for c, ps := range r.Repaired {
		qs, ok := other.Repaired[c]
		if !ok || len(ps) != len(qs) {
			return false
		}
		for i, p := range ps {
			if qs[i] != p {
				return false
			}
		}
	}
	return true
}

// String renders the report compactly for logs and CLI output.
func (r *RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attempts=%d repaired=%d", r.Attempts, r.RepairedCount())
	if cols := r.RepairedColumns(); len(cols) > 0 {
		fmt.Fprintf(&b, " columns=%s", strings.Join(cols, ","))
	}
	if r.Intermediate > 0 {
		fmt.Fprintf(&b, " intermediate=%d", r.Intermediate)
	}
	if len(r.Quarantined) > 0 {
		fmt.Fprintf(&b, " quarantined=%s", strings.Join(r.Quarantined, ","))
	}
	if r.Degraded {
		fmt.Fprintf(&b, " degraded=%v", r.FinalMode)
	}
	return b.String()
}

// UnrecoverableError is the structured failure of a supervised
// execution: corruption survived the full repair-and-retry budget,
// struck an already-quarantined column, or sat in a column the repair
// chain could not heal, and no degraded fallback was available. Columns
// lists the offending error-log columns.
type UnrecoverableError struct {
	Columns  []string
	Attempts int
	// Repair carries the repair chain's error when a column could not
	// be healed at all; nil when the budget ran out.
	Repair error
	// Fallback carries the degraded DMR run's own error when the
	// fallback was enabled but failed too; nil otherwise.
	Fallback error
}

func (e *UnrecoverableError) Error() string {
	msg := fmt.Sprintf("exec: unrecoverable corruption in %s after %d attempts",
		strings.Join(e.Columns, ", "), e.Attempts)
	if e.Repair != nil {
		msg += fmt.Sprintf("; repair failed: %v", e.Repair)
	}
	if e.Fallback != nil {
		msg += fmt.Sprintf("; degraded DMR fallback failed: %v", e.Fallback)
	}
	return msg
}

// Unwrap exposes the repair and fallback errors for errors.Is/As chains.
func (e *UnrecoverableError) Unwrap() []error { return []error{e.Repair, e.Fallback} }

// RunWithRecovery executes the plan under the given mode with supervised
// recovery. The state machine:
//
//	first run, stopping at its first detecting stride ──clean──▶ done
//	 │ detections (stopped or not)
//	 ▼
//	repair base columns through the repair chain, then retry as a
//	full run (≤ MaxRetries; the stopped run is not charged) ──clean──▶ done
//	 │ corruption persists (stuck-at), column already quarantined,
//	 │ or the chain cannot heal it
//	 ▼
//	quarantine columns ──WithDegradedFallback──▶ DMR over plain replicas
//	 │ otherwise                                   │ voter disagrees
//	 ▼                                             ▼
//	*UnrecoverableError                        *UnrecoverableError
//
// The first attempt of Early (its Δ), Continuous and Reencoding runs
// with ops.Opts.StopOnDetect: a scan that detects finishes its
// ops.StopStride rows and stops there, since a detection dooms the
// attempt to a retry anyway. A stopped attempt is not charged to the
// budget and never escalates: with a zero budget or a quarantined
// column the first attempt runs to the end (it escalates on any
// detection), and a column the stopped attempt cannot repair escalates
// from the log of the full run that follows. So every heal, quarantine
// and fallback decision is the one a first attempt run to the end would
// have led to. Late runs its first attempt to the end.
//
// The chain's fetches run under the context of the forwarded Run options
// (WithContext): a repair that outlives the caller's deadline returns
// its error without quarantining anything. Modes without hardened base
// data (Unprotected, DMR, TMR) have no value-granular detections to act
// on; they execute once and the report records a single attempt. The
// whole loop holds the DB's repair lock, so concurrent supervised
// executions, scrubs, re-hardens and syncs serialize against it (the
// attempts themselves still run morsel-parallel on the attached pool).
func RunWithRecovery(db *DB, m Mode, flavor ops.Flavor, plan QueryFunc, opts ...RecoveryOption) (*ops.Result, *RecoveryReport, error) {
	cfg := recoveryCfg{maxRetries: DefaultMaxRetries}
	for _, o := range opts {
		o(&cfg)
	}
	rep := &RecoveryReport{Mode: m, FinalMode: m, Repaired: make(map[string][]uint64)}

	if !m.UsesHardenedData() {
		res, _, err := Run(db, m, flavor, plan, cfg.runOpts...)
		rep.Attempts = 1
		return res, rep, err
	}

	var rc runCfg
	for _, o := range cfg.runOpts {
		o(&rc)
	}
	ctx := cmp.Or(rc.ctx, context.Background())
	db.recoverMu.Lock()
	defer db.recoverMu.Unlock()

	repairedSets := make(map[string]map[uint64]bool)
	uncharged := 0                   // the first attempt, once it has stopped early
	failed := make(map[string]error) // columns the stopped attempt could not repair
	for {
		rep.Attempts++
		attempt := rc
		// Stop only where the first attempt's log can lead nowhere but
		// to repair: a zero budget or a quarantined column escalates on
		// the first detection, from the log of a full run.
		attempt.stop = rep.Attempts == 1 && cfg.maxRetries > 0 && len(db.QuarantinedColumns()) == 0
		res, log, err := attempt.run(db, m, flavor, plan)
		stopped := errors.Is(err, ops.ErrStopped) && log.Count() > 0
		if stopped {
			// The first attempt stopped at its first detecting stride:
			// a detecting attempt like any other, minus the waste.
			uncharged, err = 1, nil
		}
		if err != nil {
			// Structural failure (schema error, corrupted error
			// vector): not a detection, nothing to repair.
			return nil, rep, err
		}
		base, vec := log.PartitionColumns()
		for _, v := range vec {
			ps, err := log.Positions(v)
			if err != nil {
				return nil, rep, err
			}
			rep.Intermediate += len(ps)
		}
		if log.Count() == 0 {
			finalizeRepaired(rep, repairedSets)
			return res, rep, nil
		}

		// Detections mean the computed result is untrusted. Decide
		// whether another repair-and-retry round is allowed.
		exhausted := rep.Attempts-uncharged > cfg.maxRetries
		for _, c := range base {
			if db.IsQuarantined(c) {
				exhausted = true // known-bad column: do not loop again
			}
		}
		if exhausted {
			finalizeRepaired(rep, repairedSets)
			return escalate(db, m, flavor, plan, &cfg, rep, base, vec, nil)
		}

		// Repair phase: base columns through the repair chain; vec:
		// intermediates are recomputed by the retry itself. Columns the
		// chain cannot heal escalate once every other column is repaired.
		var unhealed []string
		var repairErrs []error
		for _, c := range base {
			if err, ok := failed[c]; ok {
				unhealed = append(unhealed, c)
				repairErrs = append(repairErrs, err)
				continue
			}
			table, ok := db.TableOf(c)
			if !ok {
				finalizeRepaired(rep, repairedSets)
				return nil, rep, fmt.Errorf("exec: cannot attribute error-log column %q to a table for repair", c)
			}
			positions, err := log.Positions(c)
			if err != nil {
				return nil, rep, err
			}
			repaired, skipped, err := db.repair(ctx, table, c, positions)
			for _, p := range repaired {
				if repairedSets[c] == nil {
					repairedSets[c] = make(map[uint64]bool)
				}
				repairedSets[c][p] = true
			}
			if err != nil {
				unhealed = append(unhealed, c)
				repairErrs = append(repairErrs, err)
				continue
			}
			if len(skipped) > 0 {
				// Out-of-range positions cannot be repaired; treat as
				// unrecoverable attribution damage rather than looping.
				finalizeRepaired(rep, repairedSets)
				return nil, rep, fmt.Errorf("exec: %d repair positions beyond column %q (first %d)", len(skipped), c, skipped[0])
			}
		}
		if len(unhealed) > 0 {
			finalizeRepaired(rep, repairedSets)
			if ctx.Err() != nil { // the caller's deadline, not the columns, ended the repair
				return nil, rep, errors.Join(repairErrs...)
			}
			if stopped {
				// Escalate from a full run's log, as a first attempt run
				// to the end would have: it repairs the columns detected
				// beyond the stop point and reports these failures again
				// without fetching them a second time.
				for i, c := range unhealed {
					failed[c] = repairErrs[i]
				}
				continue
			}
			return escalate(db, m, flavor, plan, &cfg, rep, unhealed, vec, errors.Join(repairErrs...))
		}
		if cfg.reassert != nil {
			cfg.reassert() // persistent faults re-corrupt repaired words here
		}
	}
}

// escalate quarantines the still-corrupt columns and either degrades to
// DMR over the plain replicas or returns the structured failure, which
// carries repairErr when the repair chain could not heal them.
func escalate(db *DB, m Mode, flavor ops.Flavor, plan QueryFunc, cfg *recoveryCfg, rep *RecoveryReport, base, vec []string, repairErr error) (*ops.Result, *RecoveryReport, error) {
	for _, c := range base {
		if !db.IsQuarantined(c) {
			db.QuarantineColumn(c)
		}
		rep.Quarantined = append(rep.Quarantined, c)
	}
	sort.Strings(rep.Quarantined)
	bad := append(append([]string(nil), base...), vec...)
	if !cfg.fallback {
		return nil, rep, &UnrecoverableError{Columns: bad, Attempts: rep.Attempts, Repair: repairErr}
	}
	res, _, err := Run(db, DMR, flavor, plan, cfg.runOpts...)
	if err != nil {
		return nil, rep, &UnrecoverableError{Columns: bad, Attempts: rep.Attempts, Repair: repairErr, Fallback: err}
	}
	rep.Degraded = true
	rep.FinalMode = DMR
	return res, rep, nil
}

// finalizeRepaired turns the per-column position sets into the sorted
// slices of the report.
func finalizeRepaired(rep *RecoveryReport, sets map[string]map[uint64]bool) {
	for c, set := range sets {
		ps := make([]uint64, 0, len(set))
		for p := range set {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		rep.Repaired[c] = ps
	}
}
