package exec

import (
	"context"
	"fmt"
	"sort"

	"ahead/internal/an"
	"ahead/internal/storage"
)

// Online re-hardening: the mechanism behind the adaptive controller
// (internal/adapt). A column's protection strength changes while queries
// keep running - the replacement column is built off to the side, the
// old one is never mutated by the swap, and Table.ReplaceColumn makes
// the flip atomic under the table's lock, so in-flight queries finish on
// the encoding they resolved and the next Col sees the new one.

// ColumnCoding describes the current hardening of one base column in the
// hardened table set - the controller's view of the world.
type ColumnCoding struct {
	Table  string `json:"table"`
	Column string `json:"column"`
	Rows   int    `json:"rows"`
	// DataBits is the width class the column hardens at: the code's data
	// width for AN columns (narrowed or declared), the declared width
	// (storage.Column.DeclaredBits) otherwise.
	DataBits uint `json:"data_bits"`
	// Scheme is "an", "residue" or "plain".
	Scheme string `json:"scheme"`
	// A and CodeBits describe the AN code ("an" only).
	A        uint64 `json:"a,omitempty"`
	CodeBits uint   `json:"code_bits,omitempty"`
	// DataBase is the frame of reference an AN column is stored from
	// (storage.Column.Base): its code words hold v-DataBase.
	DataBase uint64 `json:"data_base,omitempty"`
	// ResidueBits is the check width c of modulus 2^c-1 ("residue" only).
	ResidueBits uint `json:"residue_bits,omitempty"`
}

// ColumnCodings returns the coding of every base column in every
// hardened table, sorted by table then column.
func (db *DB) ColumnCodings() []ColumnCoding {
	var out []ColumnCoding
	for _, name := range db.Tables() {
		for _, hc := range db.hardened[name].Columns() {
			cc := ColumnCoding{Table: name, Column: hc.Name(), Rows: hc.Len()}
			switch {
			case hc.Code() != nil:
				cc.Scheme = "an"
				cc.A = hc.Code().A()
				cc.CodeBits = hc.Code().CodeBits()
				cc.DataBits = hc.Code().DataBits()
				cc.DataBase = hc.Base()
			case hc.IsResidueHardened():
				cc.Scheme = "residue"
				cc.ResidueBits = hc.ResidueCode().CheckBits()
				cc.DataBits = hc.DeclaredBits()
			default:
				cc.Scheme = "plain"
				cc.DataBits = hc.DeclaredBits()
			}
			out = append(out, cc)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// RehardenColumn re-encodes one base column of the hardened table set
// with the given AN code, without pausing query service. Returns the
// byte size of the replacement column (the re-encoded volume).
func (db *DB) RehardenColumn(table, column string, next *an.Code) (int, error) {
	if next == nil {
		return 0, fmt.Errorf("exec: reharden %s.%s: nil code", table, column)
	}
	return db.swapColumn(table, column, func(base *storage.Column) (*storage.Column, error) {
		return base.Harden(next)
	})
}

// ResidueHardenColumn demotes one base column to a residue sidecar of
// the given check width - plain-speed scans, modulo-check verification.
// Returns the byte size of the replacement column.
func (db *DB) ResidueHardenColumn(table, column string, checkBits uint) (int, error) {
	return db.swapColumn(table, column, func(base *storage.Column) (*storage.Column, error) {
		return base.HardenResidue(checkBits)
	})
}

// swapColumn is the shared re-harden core. Under the repair lock (so
// scrubs, syncs and repair loops never interleave with a swap) it picks
// a trustworthy plain base, builds the replacement via rebuild, and
// swaps it in atomically:
//
//   - When the repair chain's head is the plain mirror, the replacement
//     is rebuilt from it directly. The mirror is the repair ground
//     truth, so even corruption the code could NOT detect (a flip
//     pattern landing on another valid code word) is wiped by the
//     re-encode instead of being laundered into a validly-coded wrong
//     value.
//   - Otherwise the current column is verified, repaired through the
//     chain, and softened; if any corrupt position cannot be repaired
//     the swap is refused.
//
// The old column is never written, so queries that resolved it before
// the swap keep computing on a consistent encoding.
func (db *DB) swapColumn(table, column string, rebuild func(*storage.Column) (*storage.Column, error)) (int, error) {
	db.recoverMu.Lock()
	defer db.recoverMu.Unlock()

	hc, err := db.baseColumn(table, column)
	if err != nil {
		return 0, err
	}
	base := db.plainHead(table, column)
	if base == nil {
		if bad := hc.BadPositions(); len(bad) > 0 {
			if _, _, err := db.repair(context.TODO(), table, column, bad); err != nil {
				return 0, fmt.Errorf("exec: reharden %s.%s: pre-swap repair: %w; refusing to re-encode", table, column, err)
			}
		}
		base = hc
		switch {
		case hc.Code() != nil:
			if base, err = hc.Soften(); err != nil {
				return 0, err
			}
		case hc.IsResidueHardened():
			if base, err = hc.DropResidue(); err != nil {
				return 0, err
			}
		}
	}
	repl, err := rebuild(base)
	if err != nil {
		return 0, err
	}
	if err := db.hardened[table].ReplaceColumn(repl); err != nil {
		return 0, err
	}
	return repl.Bytes(), nil
}
