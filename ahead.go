// Package ahead is a Go implementation of AHEAD - Adaptable Data
// Hardening for On-the-Fly Hardware Error Detection during Database Query
// Processing (Kolditz, Habich, Lehner, Werner, de Bruijn; SIGMOD 2018).
//
// AHEAD protects in-memory column-store data against multi-bit memory,
// interconnect and ALU errors by AN coding: every value is multiplied by a
// constant A, so valid code words are exactly the multiples of A that
// decode into the data domain. Because multiplication preserves addition
// and order, queries run directly on hardened data, and every operator
// can verify every value it touches on the fly - at a fraction of the
// runtime and storage cost of dual modular redundancy.
//
// The package is a facade over the building blocks:
//
//   - AN codes (NewCode, CodeForMinBFW, StrongestCode) with encode,
//     decode, inverse-based detection and re-hardening;
//   - hardened columnar storage (NewColumn, NewStrColumn, NewTable,
//     Harden) with the paper's type system (tinyint...resbig);
//   - the six execution modes (Unprotected, DMR, Early, Late, Continuous,
//     Reencoding) over manually written query plans (NewDB, Run);
//   - silent-data-corruption analysis (DistanceDistribution,
//     SDCProbabilities) and super-A search (FindSuperAs);
//   - bit-flip injection (NewInjector, Campaign) to exercise detection.
//
// See examples/ for runnable walk-throughs and DESIGN.md for the mapping
// from the paper's sections to packages.
package ahead

import (
	"ahead/internal/an"
	"ahead/internal/bitpack"
	"ahead/internal/btree"
	"ahead/internal/exec"
	"ahead/internal/faults"
	"ahead/internal/fixedpoint"
	"ahead/internal/ops"
	"ahead/internal/sdc"
	"ahead/internal/server"
	"ahead/internal/storage"
)

// Code is an AN code: the constant A plus the data width |D| it protects.
type Code = an.Code

// NewCode constructs the AN code with constant a over dataBits-wide data.
// a must be odd and > 1; |D| + |A| must fit 64-bit words.
func NewCode(a uint64, dataBits uint) (*Code, error) { return an.New(a, dataBits) }

// CodeForMinBFW returns an AN code guaranteed to detect all bit flips of
// weight up to minBFW on dataBits-wide data, using the paper's published
// super-A tables (Table 1/Table 3).
func CodeForMinBFW(dataBits uint, minBFW int) (*Code, error) {
	return an.ForMinBFW(dataBits, minBFW)
}

// StrongestCode returns the strongest published super A whose code words
// fit within maxCodeBits - the Section 6 hardening default with
// maxCodeBits = 2*dataBits.
func StrongestCode(dataBits, maxCodeBits uint) (*Code, error) {
	return an.LargestKnown(dataBits, maxCodeBits)
}

// Column is a fixed-width column, unprotected or AN-hardened.
type Column = storage.Column

// Table groups equally long columns.
type Table = storage.Table

// Dict is an order-preserving string dictionary.
type Dict = storage.Dict

// Kind is the logical column type (TinyInt ... ResBig, Str).
type Kind = storage.Kind

// The column kinds, using the paper's type names.
const (
	TinyInt  = storage.TinyInt
	ShortInt = storage.ShortInt
	Int      = storage.Int
	BigInt   = storage.BigInt
	Str      = storage.Str
)

// NewColumn creates an empty unprotected integer column.
func NewColumn(name string, kind Kind) (*Column, error) { return storage.NewColumn(name, kind) }

// NewStrColumn dictionary-encodes string values into a fixed-width column.
func NewStrColumn(name string, values []string) *Column {
	return storage.NewStrColumn(name, values)
}

// NewTable creates an empty table.
func NewTable(name string) *Table { return storage.NewTable(name) }

// HardenTable returns a hardened copy of a table using the paper's
// Section 6 policy: each column is encoded with the largest published
// super A that fits the next native register width.
func HardenTable(t *Table) (*Table, error) { return t.Harden(storage.LargestCodeChooser) }

// HardenTableForMinBFW hardens with the smallest super A that guarantees
// the given minimum bit-flip weight - the run-time adaptability knob (R2)
// swept by the paper's Figure 8.
func HardenTableForMinBFW(t *Table, minBFW int) (*Table, error) {
	return t.Harden(storage.MinBFWCodeChooser(minBFW))
}

// Mode selects a detection variant of Section 5.1.
type Mode = exec.Mode

// The six execution modes.
const (
	// Unprotected is the plain baseline.
	Unprotected = exec.Unprotected
	// DMR replicates data and executes twice with a final voter.
	DMR = exec.DMR
	// Early detects once when base data is first touched (Δ up front).
	Early = exec.EarlyOnetime
	// Late detects once before aggregation.
	Late = exec.LateOnetime
	// Continuous detects in every operator.
	Continuous = exec.Continuous
	// Reencoding is Continuous with per-operator re-hardening.
	Reencoding = exec.ContinuousReencoding
)

// Modes lists all modes in presentation order.
var Modes = exec.Modes

// Flavor selects scalar or blocked (batch) operator kernels.
type Flavor = ops.Flavor

// The kernel flavors.
const (
	// Scalar processes one value per iteration.
	Scalar = ops.Scalar
	// Blocked processes fixed-width batches (the SIMD stand-in).
	Blocked = ops.Blocked
)

// DB holds the per-mode physical storage built from plain base tables.
type DB = exec.DB

// Query is the mode-specific context handed to a plan.
type Query = exec.Query

// QueryFunc is a manually written physical query plan.
type QueryFunc = exec.QueryFunc

// Result is a decoded, canonical query result.
type Result = ops.Result

// ErrorLog collects the hardened error vectors of a query execution.
type ErrorLog = ops.ErrorLog

// NewDB builds the per-mode storage (plain, DMR replica, hardened) from
// base tables with the default hardening policy.
func NewDB(tables []*Table) (*DB, error) {
	return exec.NewDB(tables, storage.LargestCodeChooser)
}

// NewDBForMinBFW is NewDB with hardening tuned to a minimum bit-flip
// weight.
func NewDBForMinBFW(tables []*Table, minBFW int) (*DB, error) {
	return exec.NewDB(tables, storage.MinBFWCodeChooser(minBFW))
}

// Run executes a plan under the given mode and kernel flavor. The error
// log carries the positions of all detected corruptions (hardened with
// their own AN code); without induced faults it is empty.
func Run(db *DB, m Mode, f Flavor, plan QueryFunc) (*Result, *ErrorLog, error) {
	return exec.Run(db, m, f, plan)
}

// DistanceDistribution computes the exact distance distribution of the AN
// code with constant a over k-bit data (Appendix C). Complexity O(4^k).
func DistanceDistribution(a uint64, k uint) (*sdc.Distribution, error) {
	return sdc.ExactAN(a, k)
}

// SDCProbabilities returns the silent-data-corruption probability per
// bit-flip weight for the AN code (Eq. 14, the AN curve of Figure 3).
func SDCProbabilities(a uint64, k uint) ([]float64, error) {
	return sdc.ANSDC(a, k)
}

// FindSuperAs re-runs the paper's super-A search for k-bit data over all
// constants with |A| <= maxABits, returning the optimal constant per
// guaranteed minimum bit-flip weight.
func FindSuperAs(k, maxABits uint) (map[int]sdc.Candidate, error) {
	return sdc.FindSuperAs(k, maxABits)
}

// Injector produces reproducible bit flips for fault-injection
// experiments.
type Injector = faults.Injector

// NewInjector returns a seeded fault injector.
func NewInjector(seed int64) *Injector { return faults.NewInjector(seed) }

// Campaign injects single flips of the given weight into a hardened
// column and reports how many were detected.
func Campaign(col *Column, in *Injector, trials, weight int) (faults.CampaignResult, error) {
	return faults.Campaign(col, in, trials, weight)
}

// TMR is triple modular redundancy with majority voting - the classical
// baseline of the paper's related work and, unlike DMR, able to mask a
// single faulty replica. An extension beyond the paper's six evaluated
// variants; not part of Modes.
const TMR = exec.TMR

// Repair restores the corrupted positions an error log recorded for one
// hardened column with good values from the repair chain (the plain
// mirror first, then any registered snapshot or peer), re-hardened under
// the column's current code - the "retransmission" correction the paper
// sketches in Section 9.
func Repair(db *DB, table, column string, log *ErrorLog) (int, error) {
	return db.RepairHardened(table, column, log)
}

// RecoveryReport describes what a supervised execution did: attempts,
// repaired positions per column, quarantined columns, degradation.
type RecoveryReport = exec.RecoveryReport

// UnrecoverableError is the structured failure of a supervised
// execution: corruption survived the full repair-and-retry budget.
type UnrecoverableError = exec.UnrecoverableError

// RecoveryOption tunes RunWithRecovery (exec.WithMaxRetries,
// exec.WithDegradedFallback, exec.WithRecoveryRunOptions,
// exec.WithReassert).
type RecoveryOption = exec.RecoveryOption

// RunWithRecovery executes the plan under supervised recovery: detected
// corruption is repaired through the repair chain and the query retried
// under a bounded budget; persistent faults, and columns the chain cannot
// heal, quarantine the affected columns and either degrade to DMR over
// the plain replicas or fail with a structured *UnrecoverableError. This
// is the paper's Section 9 detect-then-correct loop made operational.
func RunWithRecovery(db *DB, m Mode, f Flavor, plan QueryFunc, opts ...RecoveryOption) (*Result, *RecoveryReport, error) {
	return exec.RunWithRecovery(db, m, f, plan, opts...)
}

// Scrub verifies every AN and residue column and repairs all corruption
// through the repair chain - the offline background-scrubber counterpart
// of RunWithRecovery.
func Scrub(db *DB) (map[string]int, error) { return db.Scrub() }

// Accumulator verifies blocks of code words with one multiply+compare per
// block (the Section 9 "detection every nth code word" extension): single
// flips in a block are always detected, located by per-value re-scan.
type Accumulator = an.Accumulator

// NewAccumulator returns a block verifier over blocks of the given size.
func NewAccumulator(code *Code, block int) (*Accumulator, error) {
	return an.NewAccumulator(code, block)
}

// PackedVector is a bit-packed column (SIMD-scan-style layout): hardened
// values stored at exactly |C| bits each, the storage optimization
// Figure 8b projects.
type PackedVector = bitpack.Vector

// PackHardened bit-packs values as code words of the given code.
func PackHardened(values []uint64, code *Code) (*PackedVector, error) {
	return bitpack.Pack(values, 0, code)
}

// HardenedBTree is an AN-hardened B-tree: keys, values and child
// references are all protected, and every access verifies what it touches
// (the dictionary-index hardening of Section 4.1).
type HardenedBTree = btree.Tree

// NewHardenedBTree returns an empty tree hardened with code.
func NewHardenedBTree(code *Code) *HardenedBTree { return btree.New(code) }

// Decimal is a limb-based fixed-point number; HardenedDecimal carries
// AN-hardened limbs that support arithmetic without leaving the protected
// domain (Section 4.1's decimal hardening).
type Decimal = fixedpoint.Decimal

// HardenedDecimal is a fixed-point number with AN-hardened limbs.
type HardenedDecimal = fixedpoint.Hardened

// ParseDecimal reads a decimal literal such as "1024.50".
func ParseDecimal(s string) (*Decimal, error) { return fixedpoint.Parse(s) }

// ErrorModel describes a hardware error model as a distribution over
// bit-flip weights (requirement R2: the model drifts with hardware
// generations and aging, and the hardening must follow).
type ErrorModel = sdc.ErrorModel

// DRAMDisturbance models the Kim et al. observation the paper cites: one
// to four bit flips per word, geometrically less likely.
var DRAMDisturbance = sdc.DRAMDisturbance

// ChooseCodeForModel returns the smallest published super-A code for
// dataBits-wide values whose overall silent-corruption probability under
// the model stays at or below target - the concrete R2 adaptation loop:
// estimate the model, choose the code, re-harden (one multiplication per
// value via Column.Reencode).
func ChooseCodeForModel(dataBits uint, model ErrorModel, target float64) (*Code, float64, error) {
	a, overall, err := sdc.ChooseA(dataBits, model, target)
	if err != nil {
		return nil, 0, err
	}
	code, err := an.New(a, dataBits)
	return code, overall, err
}

// SaveTable persists a table (one self-describing file per column plus a
// manifest). Hardened columns are written as code words, so at-rest and
// interconnect corruption is detected on load by the same AN machinery
// the operators use.
func SaveTable(dir string, t *Table) error { return storage.SaveTable(dir, t) }

// LoadTable reads a table written by SaveTable. The map reports, per
// hardened column, the positions that failed load-time verification -
// value-granular, so callers can repair instead of refusing the load.
func LoadTable(dir string) (*Table, map[string][]uint64, error) {
	return storage.LoadTable(dir)
}

// ParseMode resolves a mode label ("continuous", "dmr", ...) case-
// insensitively. Unknown labels are an error, never a silent
// Unprotected fallback.
func ParseMode(s string) (Mode, error) { return exec.ParseMode(s) }

// ParseFlavor resolves a kernel-flavor label ("scalar" or "blocked").
func ParseFlavor(s string) (Flavor, error) { return ops.ParseFlavor(s) }

// ServerConfig configures the hardened query service; NewQueryServer
// returns an http.Handler serving prepared SSB flights and ad-hoc
// requests with admission control, per-request deadlines, cancellation,
// self-healing execution, and Prometheus-text metrics. See
// cmd/ahead-serve for the full process wiring (signals, drain).
type ServerConfig = server.Config

// QueryServer is the hardened query service (an http.Handler).
type QueryServer = server.Server

// NewQueryServer builds a query server over an SSB database.
func NewQueryServer(cfg ServerConfig) (*QueryServer, error) { return server.New(cfg) }

// LiveScratch reports the number of scratch-arena buffers currently
// borrowed by running operators. It returns to its baseline when no
// queries are in flight - the invariant the serving layer's leak checks
// and /metrics gauge are built on.
func LiveScratch() int64 { return ops.LiveScratch() }
