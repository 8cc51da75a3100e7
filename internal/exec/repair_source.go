// The repair chain: the one route good values take into a hardened
// column. Section 9's correction needs only *some* redundant copy once
// detection has said where the flip is; the chain is the ordered list of
// such copies - the plain mirror first (NewDB; DropPlainRepair removes
// it), then a local snapshot or a peer replica. Sources hand the chain
// verified plain values and the chain writes them with Column.Set, so a
// corrupt copy can fail a repair, never make a column worse.
package exec

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"ahead/internal/storage"
)

// RepairSource is one entry of the repair chain. Values returns the good
// plain value at each of positions - ascending, inside the column, in
// one storage.DefaultChunkRows chunk - of table's column hc, and stops
// when ctx does. A source holding code words verifies them first: a copy
// that fails verification is an error, never a value.
type RepairSource interface {
	Name() string
	Values(ctx context.Context, table string, hc *storage.Column, positions []uint64) ([]uint64, error)
}

// plainSource is the chain's head at boot: the in-process plain mirror,
// read position by position - no chunk, no encode, no verify - so a
// repair from it costs what its positions cost.
type plainSource struct{ db *DB }

func (plainSource) Name() string { return "plain" }

func (p plainSource) Values(_ context.Context, table string, hc *storage.Column, positions []uint64) ([]uint64, error) {
	pc, err := p.db.plain[table].Column(hc.Name())
	if err != nil {
		return nil, err
	}
	vals := make([]uint64, len(positions))
	for i, pos := range positions {
		vals[i] = pc.Get(int(pos))
	}
	return vals, nil
}

// RegisterRepairSource appends a source to the repair chain.
func (db *DB) RegisterRepairSource(src RepairSource) {
	db.srcMu.Lock()
	db.repairSources = append(db.repairSources, src)
	db.srcMu.Unlock()
}

// RepairSources returns the repair chain, head first.
func (db *DB) RepairSources() []RepairSource {
	db.srcMu.Lock()
	defer db.srcMu.Unlock()
	return append([]RepairSource(nil), db.repairSources...)
}

// DropPlainRepair removes the in-process plain mirror from the repair
// chain, modeling a replica that holds hardened data only: repairs then
// come from the registered sources alone. Nothing is freed - Unprotected
// and DMR execution, the dictionaries and reference runs still read the
// plain tables.
func (db *DB) DropPlainRepair() {
	db.srcMu.Lock()
	db.repairSources = slices.DeleteFunc(db.repairSources, func(src RepairSource) bool {
		_, plain := src.(plainSource)
		return plain
	})
	db.srcMu.Unlock()
}

// plainHead returns the plain mirror of table.column when the chain's
// head is the plain entry, else nil - the one question the re-harden
// asks of the chain (it rebuilds from the mirror, DESIGN.md §8b).
func (db *DB) plainHead(table, column string) *storage.Column {
	if chain := db.RepairSources(); len(chain) > 0 {
		if _, plain := chain[0].(plainSource); plain {
			pc, _ := db.plain[table].Column(column)
			return pc
		}
	}
	return nil
}

// repair heals positions of table.column through the repair chain, one
// storage.DefaultChunkRows chunk at a time, each from the first source
// that answers it whole. It returns the repaired and the skipped
// (out-of-range) positions; a chunk no source can serve stops it with
// every source's reason. The caller holds recoverMu, as every entry
// point that writes repaired words does.
func (db *DB) repair(ctx context.Context, table, column string, positions []uint64) (repaired, skipped []uint64, err error) {
	hc, err := db.baseColumn(table, column)
	if err != nil {
		return nil, nil, err
	}
	n := uint64(hc.Len())
	todo := make([]uint64, 0, len(positions))
	for _, pos := range positions {
		if pos >= n {
			skipped = append(skipped, pos)
		} else {
			todo = append(todo, pos)
		}
	}
	slices.Sort(todo)
	chain := db.RepairSources()
	for len(todo) > 0 {
		chunk := todo[0] / storage.DefaultChunkRows
		end := 1
		for end < len(todo) && todo[end]/storage.DefaultChunkRows == chunk {
			end++
		}
		batch := todo[:end]
		todo = todo[end:]
		vals, err := fetch(ctx, chain, table, hc, batch)
		if err != nil {
			return repaired, skipped, fmt.Errorf("exec: cannot repair %s.%s chunk %d: %w", table, column, chunk, err)
		}
		writeRepaired(hc, batch, vals)
		repaired = append(repaired, batch...)
	}
	return repaired, skipped, nil
}

// fetch returns the first complete answer of the chain's sources, in
// order, or every source's reason; the caller's deadline ends the walk.
// An answer holding a value outside an AN column's domain
// (storage.Column.Domain: [base, base+MaxData]) is such a reason: every
// value the column ever held lies inside it (growth widens the domain
// first), so the source is corrupt - and writing the value would widen a
// narrowed or frame-of-reference column under its concurrent readers.
func fetch(ctx context.Context, chain []RepairSource, table string, hc *storage.Column, positions []uint64) ([]uint64, error) {
	if len(chain) == 0 {
		return nil, errors.New("the repair chain is empty")
	}
	var errs []error
	for _, src := range chain {
		vals, err := src.Values(ctx, table, hc, positions)
		if err == nil && len(vals) != len(positions) {
			err = fmt.Errorf("%d values for %d positions", len(vals), len(positions))
		}
		if code := hc.Code(); err == nil && code != nil {
			lo, hi := hc.Domain()
			for i, v := range vals {
				if v < lo || v > hi {
					err = fmt.Errorf("value %d at position %d outside the domain [%d, %d] of %v", v, positions[i], lo, hi, code)
					break
				}
			}
		}
		if err == nil {
			return vals, nil
		}
		errs = append(errs, fmt.Errorf("source %s: %w", src.Name(), err))
		if ctx.Err() != nil {
			break
		}
	}
	return nil, errors.Join(append(errs, ctx.Err())...)
}

// writeRepaired is the one place repaired values reach a hardened
// column: Set re-hardens each under the column's current code, or
// refreshes its residue check word. The caller holds recoverMu.
func writeRepaired(hc *storage.Column, positions, vals []uint64) {
	for i, pos := range positions {
		hc.Set(int(pos), vals[i])
	}
}

// SaveSnapshot persists every hardened table as a chunked columnar
// snapshot under dir/<table>/ - the local redundancy a
// SnapshotRepairSource later repairs from.
func (db *DB) SaveSnapshot(dir string) error {
	names := make([]string, 0, len(db.hardened))
	for name := range db.hardened {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := storage.SaveTable(filepath.Join(dir, name), db.hardened[name]); err != nil {
			return fmt.Errorf("exec: snapshot of %s: %w", name, err)
		}
	}
	return nil
}

// UseHardened replaces the hardened copy of a known table - typically
// with a snapshot-loaded table whose columns carry verified code words
// and rebuilt packed mirrors.
func (db *DB) UseHardened(t *storage.Table) error {
	if db.hardened[t.Name()] == nil {
		return fmt.Errorf("exec: unknown table %q", t.Name())
	}
	if t.Rows() != db.hardened[t.Name()].Rows() {
		return fmt.Errorf("exec: table %q has %d rows, expected %d", t.Name(), t.Rows(), db.hardened[t.Name()].Rows())
	}
	db.hardened[t.Name()] = t
	return nil
}

// ColumnChunkCRCs returns the per-chunk CRCs of a hardened column's
// current in-memory contents, one per storage.DefaultChunkRows chunk -
// the digests the anti-entropy protocol compares across replicas.
func (db *DB) ColumnChunkCRCs(table, column string) ([]uint32, error) {
	hc, err := db.hardenedColumn(table, column)
	if err != nil {
		return nil, err
	}
	return storage.ColumnChunkCRCs(hc, storage.DefaultChunkRows)
}

// ChunkWords returns the raw code words of one storage.DefaultChunkRows
// chunk of a hardened column - the payload a replica serves to a
// syncing peer. Words are served as stored; the receiver AN-verifies
// them.
func (db *DB) ChunkWords(table, column string, chunk int) ([]uint64, error) {
	hc, err := db.hardenedColumn(table, column)
	if err != nil {
		return nil, err
	}
	start, n, err := chunkSpan(hc, table, chunk)
	if err != nil {
		return nil, err
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = hc.Get(start + i)
	}
	return words, nil
}

// HealChunk overwrites one chunk of a hardened column with words fetched
// from an authoritative peer - the apply step of anti-entropy. The chunk
// is verified whole under the column's code, the positions whose stored
// word differs go through the repair chain's write step, and the plain
// mirrors follow so every execution mode observes the healed values -
// the TMR replica too once built, which recoverMu orders against its
// build. It returns the number of positions whose stored word changed.
func (db *DB) HealChunk(table, column string, chunk int, words []uint64) (int, error) {
	db.recoverMu.Lock()
	defer db.recoverMu.Unlock()
	hc, err := db.hardenedColumn(table, column)
	if err != nil {
		return 0, err
	}
	start, n, err := chunkSpan(hc, table, chunk)
	if err != nil {
		return 0, err
	}
	if len(words) != n {
		return 0, fmt.Errorf("exec: chunk %d of %s.%s holds %d words, got %d", chunk, table, column, n, len(words))
	}
	vals, err := storage.DecodeWords(hc.Code(), hc.Base(), words)
	if err != nil {
		return 0, fmt.Errorf("exec: refusing to heal %s.%s chunk %d: %w", table, column, chunk, err)
	}
	var changed, good []uint64
	for i, w := range words {
		if hc.Get(start+i) != w {
			changed = append(changed, uint64(start+i))
			good = append(good, vals[i])
		}
	}
	writeRepaired(hc, changed, good)
	for _, mirror := range []map[string]*storage.Table{db.plain, db.replica, db.replica2} {
		if t := mirror[table]; t != nil {
			if pc, err := t.Column(column); err == nil {
				for i, d := range vals {
					if pc.Get(start+i) != d {
						pc.Set(start+i, d)
					}
				}
			}
		}
	}
	return len(changed), nil
}

// chunkSpan resolves a chunk index against a column: the first row and
// the row count of storage.DefaultChunkRows chunk number chunk.
func chunkSpan(hc *storage.Column, table string, chunk int) (start, n int, err error) {
	if chunk < 0 || chunk >= storage.NumChunks(hc.Len(), storage.DefaultChunkRows) {
		return 0, 0, fmt.Errorf("exec: %s.%s has no chunk %d", table, hc.Name(), chunk)
	}
	start = chunk * storage.DefaultChunkRows
	return start, min(hc.Len()-start, storage.DefaultChunkRows), nil
}

// baseColumn resolves table.column in the hardened table set, whatever
// its coding.
func (db *DB) baseColumn(table, column string) (*storage.Column, error) {
	hTab := db.hardened[table]
	if hTab == nil {
		return nil, fmt.Errorf("exec: unknown table %q", table)
	}
	return hTab.Column(column)
}

// hardenedColumn is baseColumn restricted to AN-hardened columns.
func (db *DB) hardenedColumn(table, column string) (*storage.Column, error) {
	hc, err := db.baseColumn(table, column)
	if err == nil && hc.Code() == nil {
		err = fmt.Errorf("exec: column %s.%s is not hardened", table, column)
	}
	return hc, err
}

// SnapshotRepairSource serves repairs from a columnar snapshot directory
// written by DB.SaveSnapshot. Snapshot files are opened lazily and kept
// open; every read is CRC-checked by the snapshot reader.
type SnapshotRepairSource struct {
	dir  string
	mu   sync.Mutex
	open map[string]*storage.ColumnSnapshot
}

// NewSnapshotRepairSource creates a repair source over dir.
func NewSnapshotRepairSource(dir string) *SnapshotRepairSource {
	return &SnapshotRepairSource{dir: dir, open: make(map[string]*storage.ColumnSnapshot)}
}

// Name identifies the source in errors and reports.
func (s *SnapshotRepairSource) Name() string { return "snapshot:" + s.dir }

// Values reads the chunk holding positions from the column's snapshot
// file and verifies it whole under the code and frame of reference the
// file's own header records - the column's when the snapshot was
// written, which a re-harden or residue demotion may since have changed.
// A snapshot of an unprotected column is trusted on its chunk CRCs.
func (s *SnapshotRepairSource) Values(_ context.Context, table string, hc *storage.Column, positions []uint64) ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := table + "/" + hc.Name()
	snap := s.open[key]
	if snap == nil {
		var err error
		snap, err = storage.OpenColumnSnapshot(filepath.Join(s.dir, table, hc.Name()+".col"), hc.Name())
		if err != nil {
			return nil, err
		}
		s.open[key] = snap
	}
	start := int(positions[0]) / storage.DefaultChunkRows * storage.DefaultChunkRows
	words, err := snap.ReadRows(start, min(snap.Rows()-start, storage.DefaultChunkRows))
	if err != nil {
		return nil, err
	}
	return storage.VerifiedValues(snap.Code(), snap.Base(), words, start, positions)
}

// Close releases all snapshot files.
func (s *SnapshotRepairSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for key, snap := range s.open {
		if err := snap.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.open, key)
	}
	return first
}
