package ops

import (
	"fmt"
	"math/bits"

	"ahead/internal/an"
	"ahead/internal/hashmap"
	"ahead/internal/storage"
)

// The FK probe kernels (DESIGN.md section 5): the one place a foreign
// key is softened, verified and looked up, written once per selection
// shape and instantiated per storage width.
//
//   - dense (probeWord): up to 64 consecutive rows, column-at-a-time and
//     branch-free - soften, compare against dmax, clamp, test the key
//     bitset - accumulating a hit word and a bad word the caller ANDs
//     with its selection. A full or mostly-full bitmap word of the fused
//     cascade and every chunk of a probe without selection take it.
//   - one row over a bitset (test): probeWord's body for a single word,
//     still branch-free - the set bits of a thin bitmap word and a
//     position list of the fused cascade.
//   - sparse (probe): one row, branching - a table probe's thin words
//     and lists, a selection vector, the cascade's position step.
//
// All keep one order: verify, then clamp, then index. The key bitset is
// offset by keyMin (the build side's smallest key when its keys reach
// maxKeyBitsetBits, else 0; buildKeyBits): a softened key k indexes it
// at k-keyMin, formed as d-off from the softened word d with the FK
// column's frame of reference folded into off = keyMin-base. The index
// is an address derived from a softened key, so it is only ever used at
// or below clamp = min(keyMax, base+dmax)-keyMin; a corrupted word
// (which softens above dmax), a foreign key beyond the build side's
// largest and - wrapping around - one below its smallest all land on
// the pad bit behind keyMax-keyMin, which is never set. Rows outside
// the caller's selection may be read by the dense form but are never
// verified, logged or matched: its words are masked before anything is
// derived from them.
//
// Entry points: probeBitmap/probeList (the join stages of the fused
// cascade, every flight's), resolve (its position step), probeRange
// (SemiJoin and HashProbe, row order without a selection, selection
// order with one). Each switches on the column width once per block or
// morsel. In the cascade a join's probe is a membership test: only a
// table probe - no bitset, so its lookup is the test - looks up while it
// probes, and stages the build positions of its hits. A dense attribute
// join resolves its build positions after the block's last probe, for
// the rows that survived every join (resolve), so no position is loaded
// for a row a later join drops.

// maxKeyBitsetBits caps the dense key-membership index: a build table
// whose keys span this many values or more (keyMax-keyMin) keeps plain
// hash probes. Keys reaching the cap index from the smallest of them, so
// a domain far from zero - SSB's yyyymmdd date keys,
// 19920101..19981230 - is as dense as one starting there. At 1<<22 bits
// the index tops out at 512 KiB - roomy for SSB's dense integer
// surrogates and dates, far too small to matter for pathological keys.
const maxKeyBitsetBits = 1 << 22

// denseWordBits is the population from which a 64-row bitmap word is
// probed column-at-a-time: below a quarter full, touching only the set
// rows beats reading all 64.
const denseWordBits = 16

// fkProbe is the package's one FK probe: a foreign-key column with its
// softening constants precomputed, the build table, and - for dense key
// domains - a bitset over the build table's key set plus, when build
// positions are wanted, an array of them indexed like the bitset. The
// bitset turns the dominant cost of a selective semijoin (a
// cache-missing hash probe per fact row) into an L1-resident bit test,
// the array turns the attribute joins' hash probe into one load: with a
// dense domain the probe side never touches the table.
type fkProbe struct {
	fk      fusedCol
	ht      *hashmap.U64
	keyBits []uint64 // dense membership index by k-keyMin with a clear pad bit at keyMax-keyMin+1, or nil
	keyPos  []uint32 // build position by k-keyMin, valid where keyBits is set; nil without wantPos
	keyMin  uint64
	keyMax  uint64
	wantPos bool // survivors need their build position

	posBuf *[]uint32 // the arena borrow behind keyPos
}

// makeFKProbe prepares a probe of col against ht, with the dense index
// when the key domain allows one. A hardened FK whose largest valid key
// (base+dmax) lies below keyMin has no key to index, and probes the
// table. A probe made with wantPos must be released.
func makeFKProbe(col *storage.Column, ht *hashmap.U64, wantPos bool) fkProbe {
	j := fkProbe{fk: makeFusedCol(col), ht: ht, wantPos: wantPos}
	j.keyBits, j.keyMin, j.keyMax = buildKeyBits(ht)
	if j.fk.code != nil && j.fk.base+j.fk.dmax < j.keyMin {
		j.keyBits = nil
	}
	if wantPos && j.keyBits != nil {
		// Only slots whose key bit is set are ever read, so the borrowed
		// array needs no clearing.
		span := j.keyMax - j.keyMin
		j.posBuf = borrowU32(int(span) + 1)
		j.keyPos = (*j.posBuf)[:span+1]
		ht.Range(func(k uint64, bp uint32) bool {
			j.keyPos[k-j.keyMin] = bp
			return true
		})
	}
	if fkProbeMade != nil {
		fkProbeMade(col.Name(), j.keyBits != nil)
	}
	return j
}

// fkProbeMade, when set, sees every FK probe makeFKProbe prepares: the
// FK column and whether the probe took the dense key index. Tests set it
// to pin which joins run dense.
var fkProbeMade func(fk string, dense bool)

// release returns the position array to the arena.
func (j *fkProbe) release() {
	releaseU32(j.posBuf)
	j.posBuf, j.keyPos = nil, nil
}

// buildKeyBits constructs the dense membership bitset for a build table
// over its keys' offsets k-keyMin, or nil when the keys span
// maxKeyBitsetBits or more. keyMin is the smallest key when the largest
// lies at or beyond the cap, else 0: keys below the cap index from zero,
// which lets probes of a plain FK take probeWord's offset-free loops.
// The bitset always covers bit keyMax-keyMin+1, the pad the clamped
// probes index.
func buildKeyBits(ht *hashmap.U64) (words []uint64, keyMin, keyMax uint64) {
	keyMin = ^uint64(0)
	dense := true
	ht.Range(func(k uint64, _ uint32) bool {
		keyMin, keyMax = min(keyMin, k), max(keyMax, k)
		dense = keyMax-keyMin < maxKeyBitsetBits
		return dense
	})
	if !dense {
		return nil, 0, 0
	}
	if keyMax < maxKeyBitsetBits {
		keyMin = 0
	}
	words = make([]uint64, (keyMax-keyMin+1)>>6+1)
	ht.Range(func(k uint64, _ uint32) bool {
		o := k - keyMin
		words[o>>6] |= 1 << (o & 63)
		return true
	})
	return words, keyMin, keyMax
}

// fkKeys is an fkProbe narrowed to the FK column's storage width: the
// softening constants as T (they fit the code width, so narrowing is
// exact) and the lookup structures. One is built per kernel call.
//
// A softened word d maps to one slot: d-off, its bitset and keyPos
// index, when the bitset exists; d+base, its key in the table,
// otherwise.
type fkKeys[T an.Unsigned] struct {
	name            string
	hard            bool
	inv, mask, dmax T
	bits            []uint64
	off             uint64 // keyMin-base, wrapping: d-off = d+base-keyMin; 0 without a bitset
	base            uint64
	clamp, pad      uint64 // slots above clamp index the clear pad bit
	pos             []uint32
	ht              *hashmap.U64
	lookup          bool // a hit still needs pos or ht: position wanted, or no bitset
	wantPos         bool
}

func narrowFK[T an.Unsigned](j *fkProbe) fkKeys[T] {
	span := j.keyMax - j.keyMin
	c := fkKeys[T]{
		name: j.fk.col.Name(), hard: j.fk.code != nil,
		inv: T(j.fk.inv), mask: T(j.fk.mask), dmax: T(j.fk.dmax),
		bits: j.keyBits, base: j.fk.base,
		clamp: span, pad: span + 1,
		pos: j.keyPos, ht: j.ht,
		lookup: j.wantPos || j.keyBits == nil, wantPos: j.wantPos,
	}
	if c.bits != nil {
		c.off = j.keyMin - j.fk.base
	}
	// makeFKProbe dropped the bitset where base+dmax < keyMin, so this
	// does not wrap.
	if top := j.fk.base + j.fk.dmax - j.keyMin; c.hard && c.bits != nil && top < c.clamp {
		c.clamp = top
	}
	return c
}

// probe outcomes of one row.
const (
	probeMiss = iota
	probeHit
	probeBad
)

// probe is the sparse form: soften and verify one FK word, clamp, test
// the bitset. It returns the word's slot with probeHit when the key is
// valid and the bitset (if any) admits it, probeMiss when it does not,
// probeBad for a corrupted word.
func (c *fkKeys[T]) probe(v T) (uint64, int) {
	if c.hard {
		if v = v * c.inv & c.mask; v > c.dmax {
			return 0, probeBad
		}
	}
	k := c.slot(v)
	if c.bits != nil && (k > c.clamp || c.bits[k>>6]>>(k&63)&1 == 0) {
		return k, probeMiss
	}
	return k, probeHit
}

// test is probeWord's branch-free body for one word over a bitset: hit
// is 1 when v holds a valid key the bitset admits, bad is 1 when v is a
// corrupted word. The cascade's thin bitmap words and position lists
// take it: a selective join's hits and misses alternate unpredictably,
// which probe's branches pay for in mispredictions.
func (c *fkKeys[T]) test(v T) (hit, bad uint64) {
	if c.hard {
		d := v * c.inv & c.mask
		if d > c.dmax {
			bad = 1
		}
		v = d
	}
	// clamp <= base+dmax-keyMin: a corrupted word lands on the pad bit.
	k := uint64(v) - c.off
	if k > c.clamp {
		k = c.pad
	}
	return c.bits[k>>6] >> (k & 63) & 1, bad
}

// slot maps a softened word to the index of the lookup structures.
func (c *fkKeys[T]) slot(d T) uint64 {
	if c.bits != nil {
		return uint64(d) - c.off
	}
	return uint64(d) + c.base
}

// probeWord is the dense form over data[0:n], 0 < n <= 64: bit i of hit
// is set when row i holds a valid key the bitset admits (any valid key
// without a bitset), bit i of bad when row i holds a corrupted word.
// The words fill from the top - one constant shift per row instead of a
// variable one - and drop into place at the end; no branch depends on
// the data beyond the clamp, which only an out-of-domain key takes.
func (c *fkKeys[T]) probeWord(data []T) (hit, bad uint64) {
	if c.off != 0 {
		return c.probeWordOffset(data)
	}
	kb, clamp, pad := c.bits, c.clamp, c.pad
	tail := 64 - uint(len(data))
	if !c.hard {
		if kb == nil {
			return ^uint64(0) >> tail, 0
		}
		for _, v := range data {
			k := uint64(v)
			if k > clamp {
				k = pad
			}
			hit = hit>>1 | (kb[k>>6]>>(k&63))<<63
		}
		return hit >> tail, 0
	}
	inv, mask, dmax := c.inv, c.mask, c.dmax
	if kb == nil {
		for _, v := range data {
			var b uint64
			if v*inv&mask > dmax {
				b = 1
			}
			bad = bad>>1 | b<<63
		}
		bad >>= tail
		return ^bad & (^uint64(0) >> tail), bad
	}
	for _, v := range data {
		d := v * inv & mask
		var b uint64
		if d > dmax {
			b = 1
		}
		bad = bad>>1 | b<<63
		// clamp <= base+dmax-keyMin, so a corrupted word is clamped like
		// a foreign key: nothing above clamp ever forms an index.
		k := uint64(d)
		if k > clamp {
			k = pad
		}
		hit = hit>>1 | (kb[k>>6]>>(k&63))<<63
	}
	return hit >> tail, bad >> tail
}

// probeWordOffset is probeWord over a bitset whose index is offset from
// the softened word (off != 0: a build side far from zero, or an FK
// stored from a frame of reference): the same loops with one subtraction
// in front of the clamp. They are kept apart because the extra live
// register spills the offset-free loops every other join runs.
func (c *fkKeys[T]) probeWordOffset(data []T) (hit, bad uint64) {
	kb, off, clamp, pad := c.bits, c.off, c.clamp, c.pad
	tail := 64 - uint(len(data))
	if !c.hard {
		for _, v := range data {
			k := uint64(v) - off
			if k > clamp {
				k = pad
			}
			hit = hit>>1 | (kb[k>>6]>>(k&63))<<63
		}
		return hit >> tail, 0
	}
	inv, mask, dmax := c.inv, c.mask, c.dmax
	for _, v := range data {
		d := v * inv & mask
		var b uint64
		if d > dmax {
			b = 1
		}
		bad = bad>>1 | b<<63
		k := uint64(d) - off
		if k > clamp {
			k = pad
		}
		hit = hit>>1 | (kb[k>>6]>>(k&63))<<63
	}
	return hit >> tail, bad >> tail
}

// key softens the FK word of a row probe or probeWord reported as a hit
// to its slot.
func (c *fkKeys[T]) key(v T) uint64 {
	if c.hard {
		v = v * c.inv & c.mask
	}
	return c.slot(v)
}

// buildPos resolves a hit's slot to its build position: one load for a
// dense domain, the table otherwise (where it is also the membership
// test).
func (c *fkKeys[T]) buildPos(k uint64) (uint32, bool) {
	if c.pos != nil {
		return c.pos[k], true
	}
	return c.ht.Get(k)
}

// logBad records the rows of a bad word in row order.
func (c *fkKeys[T]) logBad(log *ErrorLog, base int, bad uint64) {
	for ; bad != 0; bad &= bad - 1 {
		log.Record(c.name, uint64(base+bits.TrailingZeros64(bad)))
	}
}

// probeBitmap probes the set rows of a block bitmap (bit i of words[w]
// selects row bs+64w+i), clearing the bits of dropped rows, and returns
// the survivor count. Over a key bitset it is a pure membership test; a
// table probe looks every hit up, and with wantPos stages the survivor's
// build position in bp[row-bs]. Corrupted keys are recorded in log when
// it is non-nil (Continuous) and dropped either way (Late: silently).
func (j *fkProbe) probeBitmap(bs int, words []uint64, bp []uint32, log *ErrorLog) int {
	c := j.fk.col
	switch c.Width() {
	case 1:
		return probeBitmapTyped(c.U8(), j, bs, words, bp, log)
	case 2:
		return probeBitmapTyped(c.U16(), j, bs, words, bp, log)
	case 4:
		return probeBitmapTyped(c.U32(), j, bs, words, bp, log)
	default:
		return probeBitmapTyped(c.U64(), j, bs, words, bp, log)
	}
}

func probeBitmapTyped[T an.Unsigned](data []T, j *fkProbe, bs int, words []uint64, bp []uint32, log *ErrorLog) int {
	c := narrowFK[T](j)
	count := 0
	for w, word := range words {
		if word == 0 {
			continue
		}
		base := bs + w<<6
		var hit, bad uint64
		switch {
		case bits.OnesCount64(word) >= denseWordBits:
			hit, bad = c.probeWord(data[base:min(base+64, len(data))])
			hit, bad = hit&word, bad&word
		case c.bits != nil:
			for t := word; t != 0; t &= t - 1 {
				b := uint(bits.TrailingZeros64(t))
				h, x := c.test(data[base+int(b)])
				hit |= h << b
				bad |= x << b
			}
		default:
			for t := word; t != 0; t &= t - 1 {
				b := bits.TrailingZeros64(t)
				switch _, st := c.probe(data[base+b]); st {
				case probeHit:
					hit |= 1 << uint(b)
				case probeBad:
					bad |= 1 << uint(b)
				}
			}
		}
		if c.bits == nil {
			for t := hit; t != 0; t &= t - 1 {
				b := bits.TrailingZeros64(t)
				p, ok := c.ht.Get(c.key(data[base+b]))
				if !ok {
					hit &^= 1 << uint(b)
				} else if c.wantPos {
					bp[base+b-bs] = p
				}
			}
		}
		if log != nil && bad != 0 {
			c.logBad(log, base, bad)
		}
		words[w] = hit
		count += bits.OnesCount64(hit)
	}
	return count
}

// probeList is probeBitmap over a block's position list, compacting it
// in place.
func (j *fkProbe) probeList(bs int, pos []uint64, bp []uint32, log *ErrorLog) []uint64 {
	c := j.fk.col
	switch c.Width() {
	case 1:
		return probeListTyped(c.U8(), j, bs, pos, bp, log)
	case 2:
		return probeListTyped(c.U16(), j, bs, pos, bp, log)
	case 4:
		return probeListTyped(c.U32(), j, bs, pos, bp, log)
	default:
		return probeListTyped(c.U64(), j, bs, pos, bp, log)
	}
}

func probeListTyped[T an.Unsigned](data []T, j *fkProbe, bs int, pos []uint64, bp []uint32, log *ErrorLog) []uint64 {
	c := narrowFK[T](j)
	n := 0
	if c.bits != nil {
		for _, p := range pos {
			hit, bad := c.test(data[p])
			pos[n] = p
			n += int(hit)
			if bad != 0 && log != nil {
				log.Record(c.name, p)
			}
		}
		return pos[:n]
	}
	for _, p := range pos {
		k, st := c.probe(data[p])
		if st != probeHit {
			if st == probeBad && log != nil {
				log.Record(c.name, p)
			}
			continue
		}
		b, ok := c.ht.Get(k)
		if !ok {
			continue
		}
		if c.wantPos {
			bp[int(p)-bs] = b
		}
		pos[n] = p
		n++
	}
	return pos[:n]
}

// noPos marks a staged build position its row could not resolve.
const noPos = ^uint32(0)

// resolve is the position step of a dense attribute join, run over the
// block's survivors pos after its last probe: it probes each row's FK
// word again - verify, clamp, test the bitset, exactly as probeBitmap
// and probeList did - and stages keyPos at the slot in bp[row-bs]. So a
// word that changed since its probe never indexes beyond keyPos nor
// reads a slot no key owns: it stages noPos and marks its row in drop
// (bit row-bs), logged under the FK column at the fact row when kl is
// non-nil (Continuous), like a probe detection. It reports whether it
// marked a row.
func (j *fkProbe) resolve(bs int, pos []uint64, bp []uint32, drop []uint64, kl *keyedLog) bool {
	c := j.fk.col
	switch c.Width() {
	case 1:
		return resolveTyped(c.U8(), j, bs, pos, bp, drop, kl)
	case 2:
		return resolveTyped(c.U16(), j, bs, pos, bp, drop, kl)
	case 4:
		return resolveTyped(c.U32(), j, bs, pos, bp, drop, kl)
	default:
		return resolveTyped(c.U64(), j, bs, pos, bp, drop, kl)
	}
}

func resolveTyped[T an.Unsigned](data []T, j *fkProbe, bs int, pos []uint64, bp []uint32, drop []uint64, kl *keyedLog) bool {
	c := narrowFK[T](j)
	marked := false
	for _, p := range pos {
		rel := int(p) - bs
		k, st := c.probe(data[p])
		if st == probeHit {
			bp[rel] = c.pos[k]
			continue
		}
		if st == probeBad {
			kl.record(c.name, p, p)
		}
		bp[rel] = noPos
		drop[rel>>6] |= 1 << (uint(rel) & 63)
		marked = true
	}
	return marked
}

// probeRange is the morsel kernel of HashProbe and SemiJoin: with sel nil
// it probes column rows [start, end), otherwise the selection entries
// with global indices [start, end). The build table is only read, so
// concurrent morsels share it safely.
func (j *fkProbe) probeRange(sel *Sel, o *Opts, log *ErrorLog, start, end int) (probePart, error) {
	// The borrowed buffers cover end-start emissions (every probe row can
	// match), so the append paths below never grow them.
	part := probePart{pos: borrowU64(end - start)}
	if j.wantPos {
		part.matches = borrowU32(end - start)
	}
	var err error
	c := j.fk.col
	switch c.Width() {
	case 1:
		err = probeRangeTyped(c.U8(), j, sel, o, log, start, end, part)
	case 2:
		err = probeRangeTyped(c.U16(), j, sel, o, log, start, end, part)
	case 4:
		err = probeRangeTyped(c.U32(), j, sel, o, log, start, end, part)
	default:
		err = probeRangeTyped(c.U64(), j, sel, o, log, start, end, part)
	}
	if err != nil {
		dropProbePart(part)
		return probePart{}, err
	}
	return part, nil
}

func probeRangeTyped[T an.Unsigned](data []T, j *fkProbe, sel *Sel, o *Opts, log *ErrorLog, start, end int, part probePart) error {
	c := narrowFK[T](j)
	fkLog := log
	if !o.detect() {
		fkLog = nil
	}
	outPos := (*part.pos)[:0]
	var outMatch []uint32
	if c.wantPos {
		outMatch = (*part.matches)[:0]
	}
	if sel == nil {
		posMul := o.posMul()
		for base := start; base < end; base += 64 {
			hit, bad := c.probeWord(data[base:min(base+64, end)])
			for t := hit; t != 0; t &= t - 1 {
				row := base + bits.TrailingZeros64(t)
				if c.lookup {
					b, ok := c.buildPos(c.key(data[row]))
					if !ok {
						continue
					}
					if c.wantPos {
						outMatch = append(outMatch, b)
					}
				}
				outPos = append(outPos, uint64(row)*posMul)
			}
			if fkLog != nil && bad != 0 {
				c.logBad(fkLog, base, bad)
			}
		}
	} else {
		for i := start; i < end; i++ {
			pos, ok := sel.At(i, log)
			if !ok {
				continue
			}
			if pos >= uint64(len(data)) {
				return fmt.Errorf("ops: position %d beyond column %q", pos, c.name)
			}
			k, st := c.probe(data[pos])
			if st != probeHit {
				if st == probeBad && fkLog != nil {
					fkLog.Record(c.name, pos)
				}
				continue
			}
			if c.lookup {
				b, ok := c.buildPos(k)
				if !ok {
					continue
				}
				if c.wantPos {
					outMatch = append(outMatch, b)
				}
			}
			outPos = append(outPos, sel.Pos[i])
		}
	}
	*part.pos = outPos
	if c.wantPos {
		*part.matches = outMatch
	}
	return nil
}

// loadList gathers the raw words of col at a block's positions into
// out[i] - the typed fetch behind the fused measure step
// (fusedMeasures.stage), which then works on one uint64 vector whatever
// the storage width.
func loadList(col *storage.Column, pos []uint64, out []uint64) {
	switch col.Width() {
	case 1:
		loadListTyped(col.U8(), pos, out)
	case 2:
		loadListTyped(col.U16(), pos, out)
	case 4:
		loadListTyped(col.U32(), pos, out)
	default:
		loadListTyped(col.U64(), pos, out)
	}
}

func loadListTyped[T an.Unsigned](data []T, pos []uint64, out []uint64) {
	out = out[:len(pos)]
	for i, p := range pos {
		out[i] = uint64(data[p])
	}
}
