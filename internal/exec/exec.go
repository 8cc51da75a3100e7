// Package exec provides the query-execution layer of AHEAD: it wires the
// physical operators of internal/ops into the detection variants of
// Section 5.1 and manages the per-variant physical data (plain tables,
// DMR replicas, hardened tables).
//
// The six execution modes:
//
//   - Unprotected: plain data, plain operators - the baseline.
//   - DMR: plain data replicated in two memory regions; every query runs
//     twice and a voter compares the results (errors surface only there).
//   - EarlyOnetime: hardened base tables; the Δ operator verifies and
//     softens every touched base column up front, then the plain plan
//     runs. Flips after the Δ pass go unnoticed.
//   - LateOnetime: hardened base tables; operators compute directly on
//     code words (hardened predicates, softened join keys) without
//     checks, and Δ verifies only the vectors feeding the final
//     aggregation.
//   - Continuous: hardened base tables, AN-aware operators verifying
//     every touched value, hardened intermediate IDs and error vectors.
//   - ContinuousReencoding: Continuous, plus every operator output is
//     re-hardened with a next-smaller A (Figure 4f).
package exec

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ahead/internal/an"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

// Mode selects the detection variant.
type Mode int

// The execution modes, in the order of the paper's figures.
const (
	// Unprotected is the no-detection baseline.
	Unprotected Mode = iota
	// DMR is dual modular redundancy.
	DMR
	// EarlyOnetime detects once when base data is first touched.
	EarlyOnetime
	// LateOnetime detects once before aggregation.
	LateOnetime
	// Continuous detects in every operator.
	Continuous
	// ContinuousReencoding additionally re-hardens operator outputs.
	ContinuousReencoding
	// TMR is triple modular redundancy: three replicas, three
	// executions, majority voting. Unlike DMR it can *mask* a single
	// diverging replica (the correction step Section 9 defers to future
	// work; TMR is the classical baseline of the paper's related work
	// [60, 61]). It is an extension beyond the paper's six evaluated
	// variants and therefore not part of Modes.
	TMR
)

// Modes lists all modes in presentation order.
var Modes = []Mode{Unprotected, DMR, EarlyOnetime, LateOnetime, Continuous, ContinuousReencoding}

// String implements fmt.Stringer with the paper's labels.
func (m Mode) String() string {
	switch m {
	case Unprotected:
		return "Unprotected"
	case DMR:
		return "DMR"
	case EarlyOnetime:
		return "Early"
	case LateOnetime:
		return "Late"
	case Continuous:
		return "Continuous"
	case ContinuousReencoding:
		return "Reencoding"
	case TMR:
		return "TMR"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode resolves a mode label (the String names, case-insensitive;
// "reencoding" and "continuousreencoding" both name the reencoding
// variant). Unknown labels are an error - callers must never fall back
// to Unprotected silently, or a typo would serve unhardened data.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "unprotected":
		return Unprotected, nil
	case "dmr":
		return DMR, nil
	case "early", "earlyonetime":
		return EarlyOnetime, nil
	case "late", "lateonetime":
		return LateOnetime, nil
	case "continuous":
		return Continuous, nil
	case "reencoding", "continuousreencoding":
		return ContinuousReencoding, nil
	case "tmr":
		return TMR, nil
	default:
		return Unprotected, fmt.Errorf("exec: unknown mode %q", s)
	}
}

// UsesHardenedData reports whether the mode reads AN-hardened base
// tables - the modes whose detections are value-granular and therefore
// repairable by RunWithRecovery.
func (m Mode) UsesHardenedData() bool { return m >= EarlyOnetime && m != TMR }

// DB holds the physical data for all modes: the plain tables, the DMR
// replica, the hardened tables and, once a TMR query has run, the TMR
// replica.
type DB struct {
	plain    map[string]*storage.Table
	replica  map[string]*storage.Table
	hardened map[string]*storage.Table

	// replica2 is TMR's third copy, built by the first TMR query
	// (tmrReplica) under recoverMu and published by tmrBuilt; nil
	// until then, so a DB that never runs TMR holds no third copy.
	replica2 map[string]*storage.Table
	tmrBuilt atomic.Bool
	// tmrBuilds counts completed builds (tests assert there is one).
	tmrBuilds int

	// colTable maps a column name to its owning table, the attribution
	// the recovery loop needs to turn an error-log column into a repair
	// target. Ambiguous names (present in several tables) map to "".
	colTable map[string]string

	// Quarantine state and the repair lock of the recovery layer (see
	// recovery.go). quarantined guards the set of base columns whose
	// corruption survived the retry budget - stuck-at faults repair
	// cannot clear.
	qmu         sync.Mutex
	quarantined map[string]bool
	recoverMu   sync.Mutex

	// The repair chain (repair_source.go): the ordered sources every
	// repair draws good values from - the plain mirror first, then any
	// registered snapshot or peer.
	srcMu         sync.Mutex
	repairSources []RepairSource

	// Per-column access-frequency counters (access.go): the hotness
	// signal the adaptive-hardening controller weighs re-harden order
	// and residue demotion by.
	accessMu sync.Mutex
	access   map[string]uint64
}

// NewDB builds the per-mode physical storage from plain base tables,
// hardening columns with the given chooser (Section 6.2 uses
// storage.LargestCodeChooser). The replica is a deep copy for DMR; TMR's
// third copy waits for the first TMR query. The plain tables head the
// repair chain.
func NewDB(tables []*storage.Table, choose storage.CodeChooser) (*DB, error) {
	db := &DB{
		plain:       make(map[string]*storage.Table),
		replica:     make(map[string]*storage.Table),
		hardened:    make(map[string]*storage.Table),
		colTable:    make(map[string]string),
		quarantined: make(map[string]bool),
		access:      make(map[string]uint64),
	}
	db.repairSources = []RepairSource{plainSource{db}}
	for _, t := range tables {
		if _, dup := db.plain[t.Name()]; dup {
			return nil, fmt.Errorf("exec: duplicate table %q", t.Name())
		}
		db.plain[t.Name()] = t
		for _, c := range t.Columns() {
			if _, seen := db.colTable[c.Name()]; seen {
				db.colTable[c.Name()] = "" // ambiguous across tables
			} else {
				db.colTable[c.Name()] = t.Name()
			}
		}
		r, err := t.Replicate()
		if err != nil {
			return nil, err
		}
		db.replica[t.Name()] = r
		h, err := t.Harden(choose)
		if err != nil {
			return nil, err
		}
		db.hardened[t.Name()] = h
	}
	return db, nil
}

// Plain returns the unprotected table.
func (db *DB) Plain(name string) *storage.Table { return db.plain[name] }

// Tables returns the sorted base-table names - the enumeration the
// serving layer's fault injector and readiness probe walk.
func (db *DB) Tables() []string {
	names := make([]string, 0, len(db.plain))
	for name := range db.plain {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Hardened returns the AN-hardened table.
func (db *DB) Hardened(name string) *storage.Table { return db.hardened[name] }

// Replica returns the DMR replica table (exposed for fault-injection
// experiments and tests).
func (db *DB) Replica(name string) *storage.Table { return db.replica[name] }

// tmrReplica builds TMR's third copy once, for every table, the first
// time a TMR query needs it. The copy is check-decoded from the hardened
// tables (storage.Column.PlainCopy), positions failing the check healed
// through the repair chain first - never copied from the plain mirror,
// whose flips since boot would then sit in two of the three voters. The
// build holds recoverMu, so repairs, scrubs, swaps and HealChunk's
// mirror loop see either no third copy or a complete one.
func (db *DB) tmrReplica() error {
	if db.tmrBuilt.Load() {
		return nil
	}
	db.recoverMu.Lock()
	defer db.recoverMu.Unlock()
	if db.tmrBuilt.Load() {
		return nil
	}
	replica := make(map[string]*storage.Table, len(db.hardened))
	for _, name := range db.Tables() {
		t := storage.NewTable(name)
		for _, hc := range db.hardened[name].Columns() {
			c, err := db.verifiedCopy(name, hc)
			if err != nil {
				return fmt.Errorf("exec: building the TMR replica: %w", err)
			}
			if err := t.AddColumn(c); err != nil {
				return err
			}
		}
		replica[name] = t
	}
	db.replica2 = replica
	db.tmrBuilds++
	db.tmrBuilt.Store(true)
	return nil
}

// verifiedCopy returns the plain copy of hardened column hc, repairing
// the positions that fail verification first. The caller holds
// recoverMu.
func (db *DB) verifiedCopy(table string, hc *storage.Column) (*storage.Column, error) {
	c, bad := hc.PlainCopy()
	if len(bad) == 0 {
		return c, nil
	}
	if _, _, err := db.repair(context.TODO(), table, hc.Name(), bad); err != nil {
		return nil, err
	}
	if c, bad = hc.PlainCopy(); len(bad) > 0 {
		return nil, fmt.Errorf("%s.%s still fails verification at %d positions after repair", table, hc.Name(), len(bad))
	}
	return c, nil
}

// ResidentCopies is the data-array footprint of each resident copy of
// the base data, read from the copies themselves. Dictionaries and
// string heaps, shared by every copy, count once, under Plain.
type ResidentCopies struct {
	Plain, DMR, TMR, Hardened int
}

// ResidentBytes reports the bytes of the copies actually resident - TMR
// reads 0 until the first TMR query builds its replica - unlike
// StorageBytes, which models a mode's footprint.
func (db *DB) ResidentBytes() ResidentCopies {
	arrays := func(tables map[string]*storage.Table) int {
		total := 0
		for _, t := range tables {
			for _, c := range t.Columns() {
				total += c.Bytes()
			}
		}
		return total
	}
	r := ResidentCopies{DMR: arrays(db.replica), Hardened: arrays(db.hardened)}
	for _, t := range db.plain {
		r.Plain += t.Bytes()
	}
	if db.tmrBuilt.Load() {
		r.TMR = arrays(db.replica2)
	}
	return r
}

// StorageBytes returns the base-data footprint of a mode: plain bytes for
// Unprotected, twice that for DMR, hardened bytes for the AHEAD modes
// (Figure 1b).
func (db *DB) StorageBytes(m Mode) int {
	total := 0
	switch {
	case m == Unprotected:
		for _, t := range db.plain {
			total += t.Bytes()
		}
	case m == DMR:
		for _, t := range db.plain {
			total += 2 * t.Bytes()
		}
	case m == TMR:
		for _, t := range db.plain {
			total += 3 * t.Bytes()
		}
	default:
		for _, t := range db.hardened {
			total += t.Bytes()
		}
	}
	return total
}

// BitPackedBytes returns the storage the hardened tables would occupy
// under bit-level packing (internal/bitpack): every hardened column at
// exactly |C| bits per value instead of the next native width, the
// "Bit-Packed" projection of Figure 8b turned into a measured number.
// Dictionaries and string heaps are unchanged.
func (db *DB) BitPackedBytes() int {
	total := 0
	seenDict := make(map[*storage.Dict]bool)
	for _, t := range db.hardened {
		for _, c := range t.Columns() {
			if code := c.Code(); code != nil {
				bits := uint64(c.Len()) * uint64(code.CodeBits())
				total += int((bits + 63) / 64 * 8)
			} else {
				total += c.Bytes()
			}
			if d := c.Dict(); d != nil && !seenDict[d] {
				seenDict[d] = true
				total += d.Bytes()
			}
			if h := c.Heap(); h != nil {
				// Heaps are shared per column here; count via the
				// plain table's accounting instead.
				continue
			}
		}
		// Heap bytes, counted once per heap as Table.Bytes does.
		total += heapBytes(t)
	}
	return total
}

func heapBytes(t *storage.Table) int {
	seen := make(map[*storage.StringHeap]bool)
	total := 0
	for _, c := range t.Columns() {
		if h := c.Heap(); h != nil && !seen[h] {
			seen[h] = true
			total += h.Bytes()
		}
	}
	return total
}

// TableOf returns the table owning the named base column - the
// attribution step that turns an error-log column into a repair target.
// It reports !ok for unknown names, vec: intermediates, and names that
// appear in more than one table (ambiguous attribution cannot be
// repaired safely).
func (db *DB) TableOf(column string) (string, bool) {
	t, ok := db.colTable[column]
	if !ok || t == "" {
		return "", false
	}
	return t, true
}

// RepairHardened restores the corrupted positions an error log recorded
// for one hardened column through the repair chain - the
// "retransmission" correction sketched in Section 9: detection is on
// value granularity, so once AHEAD knows *where* the flip happened, any
// redundant copy repairs it. It returns the number of distinct repaired
// positions (the log may record one flip once per operator that touched
// it - see ErrorLog.Positions).
//
// All decoded positions are validated against the column length before
// anything is written; out-of-range entries (a corrupted log that still
// decodes, or a log from a different column) are skipped and reported,
// never allowed to strand the remaining repairable corruption mid-loop.
// Positions whose log entries fail their AN check are reported as an
// error by the decode step itself.
func (db *DB) RepairHardened(table, column string, log *ops.ErrorLog) (int, error) {
	positions, err := log.Positions(column)
	if err != nil {
		return 0, err
	}
	db.recoverMu.Lock()
	defer db.recoverMu.Unlock()
	repaired, skipped, err := db.repair(context.TODO(), table, column, positions)
	if err != nil {
		return 0, err
	}
	if len(skipped) > 0 {
		return len(repaired), fmt.Errorf("exec: %d repair positions beyond column %q (first %d); %d valid positions repaired",
			len(skipped), column, skipped[0], len(repaired))
	}
	return len(repaired), nil
}

// Scrub verifies every AN and residue column of every hardened table and
// repairs all corrupted positions through the repair chain - the
// offline counterpart of RunWithRecovery's on-the-fly repair (a
// background scrubber in production terms). It holds the repair lock.
// It returns the number of repaired values per "table.column" and the
// first error encountered.
func (db *DB) Scrub() (map[string]int, error) {
	db.recoverMu.Lock()
	defer db.recoverMu.Unlock()
	out := make(map[string]int)
	for _, name := range db.Tables() {
		for _, hc := range db.hardened[name].Columns() {
			bad := hc.BadPositions()
			if len(bad) == 0 {
				continue
			}
			repaired, _, err := db.repair(context.TODO(), name, hc.Name(), bad)
			if err != nil {
				return out, err
			}
			out[name+"."+hc.Name()] = len(repaired)
		}
	}
	return out, nil
}

// QuarantineColumn marks a base column as unrecoverable: its corruption
// survived a full repair-and-retry budget (a stuck-at fault repair from
// the replica cannot clear). Subsequent RunWithRecovery calls that see
// detections in a quarantined column escalate immediately instead of
// burning their retry budget again.
func (db *DB) QuarantineColumn(column string) {
	db.qmu.Lock()
	db.quarantined[column] = true
	db.qmu.Unlock()
}

// IsQuarantined reports whether the column is quarantined.
func (db *DB) IsQuarantined(column string) bool {
	db.qmu.Lock()
	defer db.qmu.Unlock()
	return db.quarantined[column]
}

// QuarantinedColumns returns the sorted quarantined column names.
func (db *DB) QuarantinedColumns() []string {
	db.qmu.Lock()
	defer db.qmu.Unlock()
	out := make([]string, 0, len(db.quarantined))
	for c := range db.quarantined {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// ClearQuarantine lifts the quarantine for the given columns (all of
// them when called without arguments) - after a scrub following hardware
// replacement, for example.
func (db *DB) ClearQuarantine(columns ...string) {
	db.qmu.Lock()
	defer db.qmu.Unlock()
	if len(columns) == 0 {
		db.quarantined = make(map[string]bool)
		return
	}
	for _, c := range columns {
		delete(db.quarantined, c)
	}
}

// QueryFunc is a manually written physical query plan (Section 6.1), run
// against the mode-specific view a Query provides.
type QueryFunc func(q *Query) (*ops.Result, error)

// RunOption tunes one query execution.
type RunOption func(*runCfg)

type runCfg struct {
	pool     *Pool
	noFuse   bool
	noPacked bool
	ctx      context.Context
	capture  *Capture
	// stop marks the supervised first attempt (RunWithRecovery): its
	// detecting scans stop at their first detecting stride.
	stop bool
}

// Capture receives the pre-softening aggregate state of a run: the
// group key tuples and the aggregate vector exactly as the plan handed
// them to Finish - under Continuous and Reencoding still AN-hardened
// under the widened accumulator code. The cluster layer serializes this
// state onto the wire instead of the softened Result, so partial
// aggregates stay inside the coded domain until the router's merge
// point (DESIGN.md §7). Groups and Aggs are index-aligned and unsorted
// (Finish canonicalizes only the Result).
type Capture struct {
	Groups [][]uint64
	Aggs   *ops.Vec
}

// WithCapture stashes the final pre-softening groups and aggregates of
// the run into c. Replicated modes (DMR/TMR) capture the primary
// replica; the voter still compares the softened results.
func WithCapture(c *Capture) RunOption {
	return func(cfg *runCfg) { cfg.capture = c }
}

// WithPool attaches a morsel pool: the AN-aware kernels run
// morsel-parallel on it, and DMR/TMR replicas execute as independent
// pool jobs voting at the barrier. A pool holds no goroutines between
// task sets, so one can be shared by any number of concurrent runs (the
// SSB harness and the server each hold one).
func WithPool(p *Pool) RunOption {
	return func(c *runCfg) { c.pool = p }
}

// WithFusion toggles the fused operator chains (on by default). Passing
// false forces the materializing operator-at-a-time pipeline under every
// mode - the baseline the fused kernels are benchmarked against, and one
// axis of the cross-mode differential test matrix.
func WithFusion(enabled bool) RunOption {
	return func(c *runCfg) { c.noFuse = !enabled }
}

// WithPacked toggles the direct-on-compressed scan kernels (on by
// default). Passing false forces the wide kernels even on columns that
// carry a packed lane mirror - the A/B switch of the fused-vs-packed
// bench pairs and the packed differential suite. Results, error logs
// and entry order are identical either way (the packed branch of
// ops/pred.go); only throughput differs.
func WithPacked(enabled bool) RunOption {
	return func(c *runCfg) { c.noPacked = !enabled }
}

// WithContext bounds the run: deadlines and cancellations on ctx stop
// the query at the next operator entry - on a pooled run also at the
// next morsel boundary - returning ctx.Err(). A run that completes
// before cancellation is untouched - its result and error log are
// byte-identical to an unbounded run, so serving-layer deadlines never
// perturb detection determinism. Aborted runs release every borrowed
// scratch buffer before returning (see ops.LiveScratch).
func WithContext(ctx context.Context) RunOption {
	return func(c *runCfg) { c.ctx = ctx }
}

// Run executes the plan under the given mode and flavor. For DMR it runs
// the plan on both replicas and votes. The returned ErrorLog carries the
// error vectors the AN-aware operators filled (empty without induced
// faults); parallel execution merges per-morsel and per-replica logs in
// input order, so the log is position-identical to a serial run.
func Run(db *DB, m Mode, flavor ops.Flavor, plan QueryFunc, opts ...RunOption) (*ops.Result, *ops.ErrorLog, error) {
	var cfg runCfg
	for _, o := range opts {
		o(&cfg)
	}
	return cfg.run(db, m, flavor, plan)
}

// run is Run with its options applied.
func (cfg runCfg) run(db *DB, m Mode, flavor ops.Flavor, plan QueryFunc) (*ops.Result, *ops.ErrorLog, error) {
	log := ops.NewErrorLog()
	if cfg.ctx != nil {
		if err := cfg.ctx.Err(); err != nil {
			return nil, log, err
		}
	}
	replicas := 1
	switch m {
	case DMR:
		replicas = 2
	case TMR:
		replicas = 3
	}
	if replicas == 1 {
		r, err := cfg.newQuery(db, m, flavor, log, 0).run(plan)
		return r, log, err
	}
	if m == TMR {
		if err := db.tmrReplica(); err != nil {
			return nil, log, err
		}
	}
	results := make([]*ops.Result, replicas)
	if err := runReplicated(db, m, flavor, plan, log, results, cfg); err != nil {
		return nil, log, err
	}
	if replicas == 2 {
		if err := ops.Vote(results[0], results[1]); err != nil {
			return results[0], log, err
		}
		return results[0], log, nil
	}
	return voteTMR(results, log)
}

// newQuery is the one place a run's options become a Query: every
// replica of every mode gets the same pool, fusion, packing, context and
// capture settings and differs only in its replica index and log
// (Finish captures from the primary replica only).
func (cfg *runCfg) newQuery(db *DB, m Mode, flavor ops.Flavor, log *ops.ErrorLog, replicaIdx int) *Query {
	return &Query{db: db, mode: m, flavor: flavor, log: log, replicaIdx: replicaIdx,
		pool: cfg.pool, noFuse: cfg.noFuse, noPacked: cfg.noPacked, ctx: cfg.ctx, capture: cfg.capture, stop: cfg.stop}
}

// runReplicated executes the replica plans as independent pool jobs,
// filling results for the voter. Every replica runs against its own data
// copy with a private error log; the logs merge in replica order, so the
// merged log is the same however the jobs were scheduled. Without a
// pool the replicas run one after another on the caller. The replica
// queries keep the pool, so each replica's kernels additionally run
// morsel-parallel as task sets of their own.
func runReplicated(db *DB, m Mode, flavor ops.Flavor, plan QueryFunc, log *ops.ErrorLog, results []*ops.Result, cfg runCfg) error {
	n := len(results)
	errs := make([]error, n)
	logs := make([]*ops.ErrorLog, n)
	jobs := make([]func(), n)
	for i := range jobs {
		i := i
		jobs[i] = func() {
			logs[i] = ops.NewErrorLog()
			results[i], errs[i] = cfg.newQuery(db, m, flavor, logs[i], i).run(plan)
		}
	}
	cfg.pool.Jobs(jobs...)
	for _, l := range logs {
		log.Merge(l)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// voteTMR applies the majority vote: any two agreeing replicas mask the
// third.
func voteTMR(results []*ops.Result, log *ops.ErrorLog) (*ops.Result, *ops.ErrorLog, error) {
	switch {
	case results[0].Equal(results[1]):
		return results[0], log, nil
	case results[0].Equal(results[2]) || results[1].Equal(results[2]):
		return results[2], log, nil
	default:
		return nil, log, fmt.Errorf("exec: TMR voter found no majority among three replicas")
	}
}

// Query is the mode-specific execution context handed to a plan.
type Query struct {
	db         *DB
	mode       Mode
	flavor     ops.Flavor
	log        *ops.ErrorLog
	replicaIdx int // 0 = primary, 1/2 = DMR/TMR replicas
	// deltaCache holds the Δ-softened columns of an Early run, one per
	// touched base column, and deltaRelease the arena borrows behind
	// them; lease holds the position, value and match vectors the
	// materializing operators handed the plan. All live exactly as long
	// as the run (run releases on every exit) and are never shared
	// across queries.
	deltaCache   map[string]*storage.Column
	deltaRelease []func()
	lease        ops.Lease
	// counted lists the (table, column) pairs this query has already
	// added to the access counters (access.go).
	counted [][2]string

	pool     *Pool
	noFuse   bool
	noPacked bool
	ctx      context.Context
	capture  *Capture
	stop     bool
}

// Mode returns the execution mode.
func (q *Query) Mode() Mode { return q.mode }

// Log returns the query's error log.
func (q *Query) Log() *ops.ErrorLog { return q.log }

// Pool returns the worker pool the query runs on (nil when serial).
func (q *Query) Pool() *Pool { return q.pool }

// Opts returns the operator options implementing the mode's detection
// behaviour. On the supervised first attempt the detecting kernels -
// every kernel under Continuous and Reencoding, Early's Δ (col) - stop
// at their first detecting stride; Late's kernels and plain scans never
// stop.
func (q *Query) Opts() *ops.Opts {
	detect := q.mode == Continuous || q.mode == ContinuousReencoding
	o := &ops.Opts{
		Detect:       detect,
		HardenIDs:    detect,
		Flavor:       q.flavor,
		Log:          q.log,
		NoPacked:     q.noPacked,
		Ctx:          q.ctx,
		StopOnDetect: q.stop && detect,
		Reencode:     q.mode == ContinuousReencoding,
	}
	// Assign through a typed check so a nil *Pool never becomes a
	// non-nil Parallel interface value.
	if q.pool != nil {
		o.Par = q.pool
	}
	o.KeepIn(&q.lease)
	return o
}

// FuseOperators reports whether the plan may run fused operator chains
// (ops.FusedFilterSemiSumProduct and friends) instead of materializing
// every intermediate. Every mode fuses: under ContinuousReencoding the
// fused kernels re-harden the measure staging vectors - the outputs the
// cascade still stores between two steps - under the next-smaller A
// (ops.Opts.Reencode).
// WithFusion(false) forces the materializing pipeline everywhere.
func (q *Query) FuseOperators() bool { return !q.noFuse }

// Col returns the physical column a plan must use for table.column under
// the current mode: the plain column (Unprotected), the replica column
// (DMR second pass), the Δ-softened column (EarlyOnetime - verified and
// decoded on first touch, with the cost that entails), or the hardened
// column (Late/Continuous/Reencoding). The primary replica's first
// resolution of each column feeds the access counters the adaptive
// controller reads.
func (q *Query) Col(table, column string) (*storage.Column, error) {
	c, err := q.col(table, column)
	if err == nil && q.replicaIdx == 0 {
		q.countAccess(table, column, c.Len())
	}
	return c, err
}

func (q *Query) col(table, column string) (*storage.Column, error) {
	switch q.mode {
	case Unprotected:
		return q.db.plain[table].Column(column)
	case DMR, TMR:
		switch q.replicaIdx {
		case 1:
			return q.db.replica[table].Column(column)
		case 2:
			return q.db.replica2[table].Column(column)
		}
		return q.db.plain[table].Column(column)
	case EarlyOnetime:
		key := table + "." + column
		if c, ok := q.deltaCache[key]; ok {
			return c, nil
		}
		hc, err := q.db.hardened[table].Column(column)
		if err != nil {
			return nil, err
		}
		plain := hc
		if hc.Code() != nil || hc.IsResidueHardened() {
			var release func()
			o := q.Opts()
			o.StopOnDetect = q.stop
			if plain, release, err = ops.Delta(hc, o); err != nil {
				return nil, err
			}
			q.deltaRelease = append(q.deltaRelease, release)
		}
		if q.deltaCache == nil {
			q.deltaCache = make(map[string]*storage.Column)
		}
		q.deltaCache[key] = plain
		return plain, nil
	default:
		return q.db.hardened[table].Column(column)
	}
}

// run executes the plan and, on every exit - result, plan error, panic,
// cancellation - returns what the query borrowed from the arena: the Δ
// buffers of an Early run and the operator outputs kept in the lease.
// The columns handed out by Col and every Sel and Vec the operators
// returned are dead afterwards; the Result is an owned copy.
func (q *Query) run(plan QueryFunc) (*ops.Result, error) {
	defer q.release()
	return plan(q)
}

func (q *Query) release() {
	for _, release := range q.deltaRelease {
		release()
	}
	q.deltaRelease, q.deltaCache = nil, nil
	q.lease.Release()
}

// MustCol is Col but panics on schema errors (plans have static schemas).
func (q *Query) MustCol(table, column string) *storage.Column {
	c, err := q.Col(table, column)
	if err != nil {
		panic(err)
	}
	return c
}

// Dict returns the shared dictionary of a string column, used to translate
// string predicates into code ranges. Dictionaries are immutable and
// shared across all mode variants of a table.
func (q *Query) Dict(table, column string) (*storage.Dict, error) {
	c, err := q.db.plain[table].Column(column)
	if err != nil {
		return nil, err
	}
	if c.Dict() == nil {
		return nil, fmt.Errorf("exec: column %s.%s has no dictionary", table, column)
	}
	return c.Dict(), nil
}

// PreAggregate applies the LateOnetime Δ: under Late the vector feeding an
// aggregation is verified and softened here (the one detection point of
// the variant); under all other modes it is the identity - Continuous
// already verified per operator, Early/Unprotected/DMR vectors are plain.
func (q *Query) PreAggregate(v *ops.Vec) *ops.Vec {
	if q.mode == LateOnetime && v.Code != nil {
		return v.Soften(true, q.log)
	}
	return v
}

// Reencode applies the ContinuousReencoding output adaptation: the vector
// is re-hardened with the next-smaller super A of its width class. Under
// all other modes it is the identity.
func (q *Query) Reencode(v *ops.Vec) (*ops.Vec, error) {
	if q.mode != ContinuousReencoding || v.Code == nil {
		return v, nil
	}
	next, ok := an.NextSmaller(v.Code)
	if !ok {
		return v, nil
	}
	return v.Reencode(next)
}

// Finish assembles and canonicalizes a grouped result, applying the
// mode-appropriate final softening of the aggregates. When the run
// carries a Capture, the primary replica's pre-softening state is
// stashed first - groups and the (possibly still hardened) aggregate
// vector, index-aligned, before NewResult sorts its own copy.
func (q *Query) Finish(groups [][]uint64, aggs *ops.Vec) (*ops.Result, error) {
	if q.capture != nil && q.replicaIdx == 0 {
		q.capture.Groups, q.capture.Aggs = groups, ownedVec(aggs)
	}
	detect := q.mode == Continuous || q.mode == ContinuousReencoding || q.mode == LateOnetime
	return ops.NewResult(groups, aggs, detect, q.log)
}

// ownedVec copies a vector that outlives the run: a plan may finish with
// one the lease owns.
func ownedVec(v *ops.Vec) *ops.Vec {
	return &ops.Vec{Name: v.Name, Vals: slices.Clone(v.Vals), Code: v.Code}
}

// FinishScalar is Finish for single-value results.
func (q *Query) FinishScalar(agg *ops.Vec) (*ops.Result, error) {
	if q.capture != nil && q.replicaIdx == 0 {
		q.capture.Groups, q.capture.Aggs = [][]uint64{{}}, ownedVec(agg)
	}
	detect := q.mode == Continuous || q.mode == ContinuousReencoding || q.mode == LateOnetime
	return ops.ScalarResult(agg, detect, q.log)
}
