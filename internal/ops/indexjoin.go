package ops

import (
	"fmt"

	"ahead/internal/btree"
	"ahead/internal/storage"
)

// Index-based join support: the alternative to HashBuild/HashProbe when
// the dimension key is indexed by an AN-hardened B-tree (Section 4.1
// hardens dictionaries exactly this way). Unlike the hash table - whose
// buckets and stored keys are unprotected intermediate state - the
// hardened index keeps keys, payloads and child pointers verifiable
// throughout the probe phase, extending the protected domain into the
// join machinery at the cost of logarithmic probes.

// IndexBuild builds a hardened B-tree over the selected rows of a key
// column, mapping key values to row positions. Hardened key columns are
// verified while building when Detect is set.
func IndexBuild(col *storage.Column, sel *Sel, o *Opts) (*btree.Tree, error) {
	code := col.Code()
	treeCode := col.LiftedCode() // the keys' own values, whatever the column's base
	if treeCode == nil {
		// An unprotected column still gets a protected index: pick the
		// default hardening for the column's physical key width.
		keyBits := uint(col.Width()) * 8
		if keyBits > 48 {
			keyBits = 48
		}
		var err error
		treeCode, err = storage.LargestCodeChooser(keyBits)
		if err != nil {
			return nil, err
		}
	}
	if uint64(col.Len()) > treeCode.MaxData() {
		return nil, fmt.Errorf("ops: %d rows exceed the %d-bit payload domain of the index code",
			col.Len(), treeCode.DataBits())
	}
	tree := btree.New(treeCode)
	log := o.log()
	detect := o.detect()
	for i := range sel.Pos {
		pos, ok := sel.At(i, log)
		if !ok {
			continue
		}
		if pos >= uint64(col.Len()) {
			return nil, fmt.Errorf("ops: position %d beyond column %q", pos, col.Name())
		}
		v := col.Get(int(pos))
		if code != nil {
			d, okv := col.Check(v)
			if detect && !okv {
				if log != nil {
					log.Record(col.Name(), pos)
				}
				continue
			}
			v = d
		}
		if err := tree.Insert(v, pos); err != nil {
			return nil, err
		}
	}
	return tree, nil
}

// IndexProbe probes the foreign-key column (restricted to sel, or the
// whole column when sel is nil) against the index. Corruption inside the
// tree surfaces as an error (a broken index is not a per-value event);
// corrupted FK values are logged like in HashProbe.
func IndexProbe(col *storage.Column, tree *btree.Tree, sel *Sel, o *Opts) (*Sel, []uint32, error) {
	log := o.log()
	detect := o.detect()
	code := col.Code()

	probe := func(rawPos uint64, pos uint64, outSel *Sel, matches *[]uint32) error {
		v := col.Get(int(pos))
		if code != nil {
			d, okv := col.Check(v)
			if !okv {
				if detect && log != nil {
					log.Record(col.Name(), pos)
				}
				return nil
			}
			v = d
		}
		bp, found, err := tree.Lookup(v)
		if err != nil {
			return fmt.Errorf("ops: corrupted join index: %w", err)
		}
		if found {
			outSel.Pos = append(outSel.Pos, rawPos)
			*matches = append(*matches, uint32(bp))
		}
		return nil
	}

	if sel == nil {
		out := &Sel{Pos: make([]uint64, 0, col.Len()/4+16), Hardened: o != nil && o.HardenIDs}
		matches := make([]uint32, 0, col.Len()/4+16)
		posMul := o.posMul()
		for i := 0; i < col.Len(); i++ {
			if err := probe(uint64(i)*posMul, uint64(i), out, &matches); err != nil {
				return nil, nil, err
			}
		}
		return out, matches, nil
	}
	out := &Sel{Pos: make([]uint64, 0, sel.Len()), Hardened: sel.Hardened}
	matches := make([]uint32, 0, sel.Len())
	for i := range sel.Pos {
		pos, ok := sel.At(i, log)
		if !ok {
			continue
		}
		if pos >= uint64(col.Len()) {
			return nil, nil, fmt.Errorf("ops: position %d beyond column %q", pos, col.Name())
		}
		if err := probe(sel.Pos[i], pos, out, &matches); err != nil {
			return nil, nil, err
		}
	}
	return out, matches, nil
}
