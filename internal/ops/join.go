package ops

import (
	"fmt"

	"ahead/internal/storage"

	"ahead/internal/hashmap"
)

// HashBuild builds the join hash table over the selected rows of a key
// column, mapping the key's *data value* to its row position. Hardened
// keys are softened while building - this is the per-operator input
// adaptation of Section 5.2: probe values hardened with a different A are
// brought into a common domain by one multiplication per value, and using
// the data domain as that common ground also serves joins between columns
// of different widths. With Detect set the build keys are verified.
func HashBuild(col *storage.Column, sel *Sel, o *Opts) (*hashmap.U64, error) {
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	ht := hashmap.New(sel.Len())
	log := o.log()
	detect := o.detect()
	code := col.Code()
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
		ht.Put(v, uint32(pos))
	}
	return ht, nil
}

// HashProbe probes the foreign-key column (restricted to sel, or the whole
// column when sel is nil) against a build table. It returns the surviving
// selection on the probe side and, aligned with it, the matched build-side
// positions. Hardened FK values are softened for the lookup; with Detect
// set they are verified first, so a flipped FK is reported instead of
// silently dropping the row.
func HashProbe(col *storage.Column, ht *hashmap.U64, sel *Sel, o *Opts) (*Sel, []uint32, error) {
	// No dense index: the plans probe here the few rows that already
	// passed the semijoins, fewer than building the index would touch.
	return hashProbe(&fkProbe{fk: makeFusedCol(col), ht: ht, wantPos: true}, sel, o)
}

// SemiJoin keeps only the probe rows whose FK value is present in the
// build table, discarding the matched positions - the cheaper form used
// when the dimension contributes no group attribute (Q1.x date filter).
// For dense build-key domains - keys spanning fewer than
// maxKeyBitsetBits values, wherever the span starts, so yyyymmdd dates
// too - the per-row hash probe is replaced by an L1-resident bitset test
// over the keys' offsets from the smallest one, and the build table
// itself is never touched on the probe side; sparse domains probe the
// table.
func SemiJoin(col *storage.Column, ht *hashmap.U64, sel *Sel, o *Opts) (*Sel, error) {
	j := makeFKProbe(col, ht, false)
	out, _, err := hashProbe(&j, sel, o)
	return out, err
}

// hashProbe is the shared entry point of HashProbe and SemiJoin.
func hashProbe(j *fkProbe, sel *Sel, o *Opts) (*Sel, []uint32, error) {
	if err := o.ctxErr(); err != nil {
		return nil, nil, err
	}
	total := j.fk.col.Len()
	out := &Sel{Hardened: o != nil && o.HardenIDs}
	if sel != nil {
		total, out.Hardened = sel.Len(), sel.Hardened
	}
	parts, err := runMorsels(o.par(total), total, o, o.log(), dropProbePart, func(log *ErrorLog, start, end int) (probePart, error) {
		return j.probeRange(sel, o, log, start, end)
	})
	if err != nil {
		return nil, nil, err
	}
	posParts := make([]*[]uint64, len(parts))
	matchParts := make([]*[]uint32, len(parts))
	for m, part := range parts {
		posParts[m], matchParts[m] = part.pos, part.matches
	}
	out.Pos = o.outU64(posParts...)
	if !j.wantPos {
		return out, nil, nil
	}
	return out, o.outU32(matchParts...), nil
}

// probePart is one morsel's probe output: surviving probe-side positions
// and - when the probe wants them - aligned with them, matched
// build-side positions. Both buffers are borrowed from the scratch
// arena; ownership transfers to hashProbe, which makes them
// query-visible through Opts.outU64/outU32.
type probePart struct {
	pos     *[]uint64
	matches *[]uint32 // nil for a semijoin
}

// dropProbePart releases one morsel's borrowed probe output - the drop
// callback for aborted probe runs.
func dropProbePart(p probePart) {
	releaseU64(p.pos)
	releaseU32(p.matches)
}
