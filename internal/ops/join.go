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
			d, okv := code.Check(v)
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
	// No dense index: every survivor needs its build position, and in the
	// plans the rows probed here have already passed the semijoins.
	return hashProbe(&fkProbe{fk: makeFusedCol(col), ht: ht, table: true}, sel, o)
}

// SemiJoin keeps only the probe rows whose FK value is present in the
// build table, discarding the matched positions - the cheaper form used
// when the dimension contributes no group attribute (Q1.x date filter).
// For dense build-key domains the per-row hash probe is replaced by an
// L1-resident bitset test over the build keys, so the build table itself
// is never touched on the probe side; sparse domains probe the table.
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
	if p := o.par(total); p != nil {
		parts, err := runMorsels(p, total, o, o.log(), dropProbePart, func(log *ErrorLog, start, end int) (probePart, error) {
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
		out.Pos = concatOwned(posParts)
		if !j.table {
			return out, nil, nil
		}
		return out, concatOwnedU32(matchParts), nil
	}
	part, err := j.probeRange(sel, o, o.log(), 0, total)
	if err != nil {
		return nil, nil, err
	}
	out.Pos = ownU64(part.pos)
	if !j.table {
		return out, nil, nil
	}
	return out, ownU32(part.matches), nil
}

// probePart is one morsel's probe output: surviving probe-side positions
// and - when the probe reads the table - aligned with them, matched
// build-side positions. Both buffers are borrowed from the scratch
// arena; ownership transfers to hashProbe, which copies them into owned
// slices (ownU64/concatOwned and the u32 twins) before they become
// query-visible.
type probePart struct {
	pos     *[]uint64
	matches *[]uint32 // nil when membership came from the dense index
}

// dropProbePart releases one morsel's borrowed probe output - the drop
// callback for aborted probe runs.
func dropProbePart(p probePart) {
	releaseU64(p.pos)
	releaseU32(p.matches)
}

// maxKeyBitsetBits caps the dense key-membership index: a build table
// whose largest key is at or beyond this keeps plain hash probes. At
// 1<<22 bits the index tops out at 512 KiB - roomy for SSB's dense
// integer surrogates, far too small to matter for pathological keys.
const maxKeyBitsetBits = 1 << 22

// fkProbe is the package's one FK probe: a foreign-key column with its
// softening constants precomputed, the build table, and - for dense key
// domains - a bitset over the build table's key set. The bitset turns
// the dominant cost of a selective semijoin (a cache-missing hash probe
// per fact row) into an L1-resident bit test: pure semijoins never touch
// the table at all, attribute joins only probe for rows the bitset
// already admitted. SemiJoin and HashProbe, the fused Q1 pass and the
// fused probe cascade all probe the same way: fk.get softens and
// verifies the key, then member, then - when table is set - ht.Get. (One
// lookup method would say that once, but the bit test plus the inlined
// hashmap.Get exceed the compiler's inlining budget, and the call costs
// the probe loops 10-20 %.)
type fkProbe struct {
	fk      fusedCol
	ht      *hashmap.U64
	keyBits []uint64 // dense membership index over the build keys, or nil
	keyMax  uint64
	table   bool // read the table: a build position is wanted, or there is no index
}

// makeFKProbe prepares a probe of col against ht, with the dense
// membership index when the key domain allows one.
func makeFKProbe(col *storage.Column, ht *hashmap.U64, wantPos bool) fkProbe {
	j := fkProbe{fk: makeFusedCol(col), ht: ht}
	j.keyBits, j.keyMax = buildKeyBits(ht)
	j.table = wantPos || j.keyBits == nil
	return j
}

// buildKeyBits constructs the dense membership bitset for a build table,
// or nil when any key lies beyond the maxKeyBitsetBits cap.
func buildKeyBits(ht *hashmap.U64) ([]uint64, uint64) {
	var max uint64
	dense := true
	ht.Range(func(k uint64, _ uint32) bool {
		if k >= maxKeyBitsetBits {
			dense = false
			return false
		}
		if k > max {
			max = k
		}
		return true
	})
	if !dense {
		return nil, 0
	}
	words := make([]uint64, max>>6+1)
	ht.Range(func(k uint64, _ uint32) bool {
		words[k>>6] |= 1 << (k & 63)
		return true
	})
	return words, max
}

// member reports whether the dense index admits a softened key; without
// an index every key may be in the table.
func (j *fkProbe) member(kv uint64) bool {
	return j.keyBits == nil || (kv <= j.keyMax && j.keyBits[kv>>6]&(1<<(kv&63)) != 0)
}

// probeRange is the morsel kernel of HashProbe and SemiJoin: with sel nil
// it probes column rows [start, end), otherwise the selection entries
// with global indices [start, end). The build table is only read, so
// concurrent morsels share it safely.
func (j *fkProbe) probeRange(sel *Sel, o *Opts, log *ErrorLog, start, end int) (probePart, error) {
	fk := j.fk // a local copy keeps the softening constants out of the loop's loads
	col := fk.col
	logFK := o.detect() && log != nil
	// The borrowed buffers cover end-start emissions (every probe row can
	// match), so the append paths below never grow them.
	part := probePart{pos: borrowU64(end - start)}
	outPos := (*part.pos)[:0]
	var outMatch []uint32
	if j.table {
		part.matches = borrowU32(end - start)
		outMatch = (*part.matches)[:0]
	}
	if sel == nil {
		posMul := o.posMul()
		for i := start; i < end; i++ {
			kv, valid := fk.get(i)
			if !valid {
				if logFK {
					log.Record(col.Name(), uint64(i))
				}
				continue
			}
			if !j.member(kv) {
				continue
			}
			if j.table {
				bp, hit := j.ht.Get(kv)
				if !hit {
					continue
				}
				outMatch = append(outMatch, bp)
			}
			outPos = append(outPos, uint64(i)*posMul)
		}
	} else {
		for i := start; i < end; i++ {
			pos, ok := sel.At(i, log)
			if !ok {
				continue
			}
			if pos >= uint64(col.Len()) {
				dropProbePart(part)
				return probePart{}, fmt.Errorf("ops: position %d beyond column %q", pos, col.Name())
			}
			kv, valid := fk.get(int(pos))
			if !valid {
				if logFK {
					log.Record(col.Name(), pos)
				}
				continue
			}
			if !j.member(kv) {
				continue
			}
			if j.table {
				bp, hit := j.ht.Get(kv)
				if !hit {
					continue
				}
				outMatch = append(outMatch, bp)
			}
			outPos = append(outPos, sel.Pos[i])
		}
	}
	*part.pos = outPos
	if j.table {
		*part.matches = outMatch
	}
	return part, nil
}
