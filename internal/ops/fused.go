package ops

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"ahead/internal/an"
	"ahead/internal/hashmap"
	"ahead/internal/storage"
)

// Fused kernels (DESIGN.md sections 5e and 5f).
//
// The materializing pipeline of the SSB plans writes every intermediate -
// selection vectors, gathered value vectors - to memory only for the next
// operator to read it straight back. The fused cascade runs the
// scan->join->aggregate tail of every SSB flight as a single pass: range
// predicates, a cascade of FK probes, an attribute step (a join with a
// dimension attribute contributes a group-key component, one without is
// a semijoin), one measure step and a sink - a scalar sum-product for
// Q1.x (FusedFilterSemiSumProduct), a per-group sum or difference for
// Q2.x-Q4.x (FusedProbeGroupSum[Diff]) - folding Algorithm 1's
// inverse-based detection into the same pass.
//
// Mode semantics mirror the materializing operator chain exactly:
//
//   - plain columns (Unprotected/DMR/Early): predicates and sums on the
//     stored values, no checks.
//   - hardened without Detect (LateOnetime): predicates compare raw code
//     words against hardened bounds (Eq. 6), join keys soften silently,
//     and the aggregation inputs are softened with verification - the
//     PreAggregate Δ of the variant - logging corruptions into the vec:
//     namespace and decoding regardless, like Vec.Soften.
//   - hardened with Detect (Continuous): every touched value is softened
//     and verified in-pass (Algorithm 1); corrupted rows are logged at
//     their global row position under the base-column name and dropped,
//     and the final sums are domain-checked under the widened
//     accumulator code.
//
// Fusion changes the shape of the error log, not the detection: entries
// appear in global row order instead of grouping by operator pass, and a
// row corrupt in several operators logs once per touched column rather
// than once per operator. ErrorLog.Positions - the repair interface -
// returns the materializing chain's position sets for every base column
// a flight reads: the joins only probe, and group attributes are fetched
// and checked after the last probe, for the rows that survived every
// join - every attribute of such a row, and then its measures, as the
// materializing chain gathers them, even when an attribute check drops
// the row before the sink. Fused serial
// and fused parallel runs produce byte-identical logs for any morsel
// size: every stage logs straight into the morsel's one log, keyed by
// fact row, and one stable sort by that key (keyedLog.sortByRow) puts
// the morsel's entries in row order before the kernel hands them on, so
// the sequence is chunking-independent.
//
// Internally the row loop is blocked - this is the engine's
// vector-at-a-time processing model (DESIGN.md section 5): each block of
// fusedBlockRows fact rows runs the predicate scan Filter runs per morsel
// (fusedPred.scan, pred.go) column-at-a-time into a pooled position
// buffer or block bitmap that stays cache-resident, the join probes run
// the typed membership kernels of probe.go over it, and only the
// per-match tails (build-position resolve, attribute fetch, measure
// step, sink) walk the rows that survived every join individually. This
// keeps the typed tight loops (the entire point of the columnar layout)
// while never materializing a full-size intermediate.
//
// The ContinuousReencoding variant fuses too. Its defining trait is
// re-hardening every operator *output* under the next-smaller A; in the
// cascade the outputs that are stored between two steps are the measure
// staging vectors, written by the measure step and read back by the
// sink. Under Opts.Reencode each staged measure word is verified under
// its column's A (a failure logs under the base column and drops the
// row, as under Continuous), re-hardened in place to an.NextSmaller(A)
// with Vec.Reencode's multiply, and verified again under A* when it is
// read back (a failure logs under the vec: namespace at the fact row and
// drops the row); the sums accumulate and are checked under A*.
// Group-key attributes are fetched as under Continuous: they decode
// straight into the plain u16 key buffers, so there is no stored code
// word to re-harden. Block position lists, bitmaps and build positions
// stay plain, as under Continuous.

// fusedBlockRows is the unit of the blocked row loop: large enough to
// amortize per-block bookkeeping, small enough that the position buffer
// and the touched column slices stay cache-resident.
const fusedBlockRows = 4096

// fusedBlockWords is the bitmap length of one block: one bit per row.
const fusedBlockWords = fusedBlockRows / 64

// bitmapSelThreshold is the survivor count at which a block's selection
// switches from a position list to a bitmap. At 1/8 of the block (512
// rows) the 512-byte bitmap undercuts the >=4 KiB position list, and the
// fixed 64-word sweep of the bitmap kernels is amortized over enough set
// bits to beat the list's pointer chase; below it, the list's
// touch-only-survivors property wins. A block is promoted once, after
// its predicates (which scan and refine position lists) and before its
// first probe; a probe stage that drops a bitmap below the threshold
// demotes it back to a list.
const bitmapSelThreshold = fusedBlockRows / 8

// maxFusedStages bounds the stages of one fused kernel (predicates,
// joins, the aggregate); the deepest SSB flight (Q4.x: four joins behind
// the scan) uses five.
const maxFusedStages = 8

// fillBitmap selects the first n rows of a block bitmap and clears the
// rest (the no-predicate case: every row enters the join cascade).
func fillBitmap(words []uint64, n int) {
	full := n / 64
	for w := 0; w < full; w++ {
		words[w] = ^uint64(0)
	}
	for w := full; w < len(words); w++ {
		words[w] = 0
	}
	if r := n % 64; r != 0 {
		words[full] = 1<<uint(r) - 1
	}
}

// listToBitmap scatters a block's global positions into its bitmap.
func listToBitmap(words []uint64, pos []uint64, bs int) {
	for w := range words {
		words[w] = 0
	}
	for _, p := range pos {
		r := int(p) - bs
		words[r>>6] |= 1 << (uint(r) & 63)
	}
}

// bitmapToList compacts a block bitmap back into global positions,
// appending to out (a scratch buffer sized for the whole block).
func bitmapToList(words []uint64, bs int, out []uint64) []uint64 {
	for w, word := range words {
		base := bs + w<<6
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			out = append(out, uint64(base+b))
		}
	}
	return out
}

// keyedLog is a morsel's detection log whose entries carry an explicit
// sort key: the hardened form of the *fact row* that caused the entry.
// Every stage of the fused cascade logs straight into it, but the stages
// of a block run one after another, and an attribute fetch logs at the
// build-side position (the repairable coordinate), which is not monotone
// in fact-row order - so neither the entry order nor HardenedPos can
// serve as the row order. sortByRow restores it once per morsel,
// independent of block and morsel boundaries, keeping fused serial and
// fused pooled logs byte-identical.
type keyedLog struct {
	log  *ErrorLog
	keys []uint64
}

// record logs pos under col and keys the entry by the fact row. A nil
// receiver or log (detection without logging) is a no-op.
func (kl *keyedLog) record(col string, pos, factRow uint64) {
	if kl == nil || kl.log == nil {
		return
	}
	kl.log.Record(col, pos)
	kl.keys = append(kl.keys, PosCode.Encode(factRow))
}

// syncKeys extends the key slice to cover entries the shared scan and
// probe kernels appended directly to the underlying log. Those kernels
// log at the global row position, so the entry's own HardenedPos is its
// key.
func (kl *keyedLog) syncKeys() {
	if kl.log == nil {
		return
	}
	for len(kl.keys) < len(kl.log.entries) {
		kl.keys = append(kl.keys, kl.log.entries[len(kl.keys)].HardenedPos)
	}
}

// sortByRow stably sorts the log by key, so it lists its entries in
// fact-row order and a row's entries in the order its stages ran.
// PosCode.Encode is monotone, so hardened keys compare like plain rows.
// A row that logs at a predicate or a probe is dropped there, and the
// stages after the last probe run in cascade order, so this is exactly
// the sequence a row-at-a-time loop would have written.
func (kl *keyedLog) sortByRow() {
	if len(kl.keys) > 1 {
		sort.Stable(byKey{kl.keys, kl.log.entries})
	}
}

// byKey sorts log entries by their parallel keys.
type byKey struct {
	keys    []uint64
	entries []ErrorEntry
}

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.entries[i], b.entries[j] = b.entries[j], b.entries[i]
}

// fusedCol is a column with its softening constants precomputed. A
// hardened column stored from a frame of reference (storage.Column.Base)
// softens to d+base, and its word w to the base-0 word w+lift in the
// 64-bit ring; both constants are 0 otherwise.
type fusedCol struct {
	col  *storage.Column
	code *an.Code
	inv  uint64
	mask uint64
	dmax uint64
	base uint64
	lift uint64
}

func makeFusedCol(c *storage.Column) fusedCol {
	f := fusedCol{col: c, code: c.Code()}
	if f.code != nil {
		f.inv, f.mask, f.dmax = f.code.AInv(), f.code.CodeMask(), f.code.MaxData()
		f.base, f.lift = c.Base(), c.Base()*f.code.A()
	}
	return f
}

// reencCol re-hardens a fused column's words under the next-smaller A of
// its lifted code (storage.Column.LiftedCode) - exec.Query.Reencode's
// output adaptation, applied to a block staging vector. A code with no
// smaller A keeps its code, as Query.Reencode does.
type reencCol struct {
	code   *an.Code // A*: the code the staged words carry
	factor uint64   // A^-1·A* (an.Code.ReencodeFactor)
	mask   uint64   // the re-encode ring narrowed to A*'s code mask
	inv    uint64   // A*'s softening constants
	cmask  uint64
	dmax   uint64
}

func makeReencCol(c *storage.Column) (reencCol, error) {
	lifted := c.LiftedCode()
	next, ok := an.NextSmaller(lifted)
	if !ok {
		next = lifted
	}
	factor, mask, err := lifted.ReencodeFactor(next)
	if err != nil {
		return reencCol{}, err
	}
	return reencCol{code: next, factor: factor, mask: mask & next.CodeMask(),
		inv: next.AInv(), cmask: next.CodeMask(), dmax: next.MaxData()}, nil
}

// reencode maps a valid base-0 word of the lifted code to its word
// under A* (Eq. 10, the arithmetic of Vec.Reencode).
func (r *reencCol) reencode(w uint64) uint64 { return w * r.factor & r.mask }

// valid reports whether a word verifies under A*.
func (r *reencCol) valid(x uint64) bool { return x*r.inv&r.cmask <= r.dmax }

// fusedMeasures is the measure step of the fused cascade, the one place a
// fused pass reads and checks its aggregate inputs. Per block, stage
// loads the surviving rows' measure words width-typed into two staging
// vectors and turns them, in place, into the words the sink adds
// unchecked:
//
//   - plain: the stored values.
//   - Late: the softened values plus the frame-of-reference base; a word
//     failing its check logs under VecLogName(column) at the fact row and
//     is decoded regardless (the PreAggregate Δ).
//   - Continuous: the verified words masked to their code bits and
//     lifted to base 0; a failure logs under the base column at the fact
//     row and zeroes the row's words, so the row adds nothing. The mask
//     matters for a 64-bit word: bits at and above |C| are not part of
//     the code word, so the check cannot see a flip there - masking
//     keeps it out of the sum too.
//   - Reencoding: Continuous's words, re-hardened in place to A*;
//     recheck then reads them back and verifies them under A*, logging
//     a word corrupted since it was staged under VecLogName(column) at
//     the fact row and zeroing the row.
//
// k is the sink's factor on b: Eq. 7c's A_b^-1 for the product, the
// difference's an.DiffFactor rescale of b into a's code - 1 on decoded
// and plain values.
type fusedMeasures struct {
	a, b       fusedCol
	hasB       bool
	detect     bool
	re         bool // Reencoding: stage re-hardens to A*, recheck verifies
	ra, rb     reencCol
	k          uint64
	sumCode    *an.Code // the code of the sums before widening
	aBuf, bBuf []uint64 // the block staging vectors, aligned with its position list
}

// makeFusedMeasures prepares the measure step over a and, when non-nil,
// b under o's mode; product selects the sink factor of the Q1.x
// sum-product over the grouped difference's.
func makeFusedMeasures(a, b *storage.Column, product bool, o *Opts) (fusedMeasures, error) {
	m := fusedMeasures{a: makeFusedCol(a), hasB: b != nil, detect: o.detect(), k: 1}
	if b != nil {
		m.b = makeFusedCol(b)
	}
	m.sumCode = m.a.code
	if m.a.code == nil || !m.detect {
		return m, nil
	}
	ca, cb := m.a.code, m.b.code
	if o.reencode() {
		var err error
		if m.ra, err = makeReencCol(a); err != nil {
			return m, err
		}
		if b != nil {
			if m.rb, err = makeReencCol(b); err != nil {
				return m, err
			}
		}
		m.re, m.sumCode = true, m.ra.code
		ca, cb = m.ra.code, m.rb.code
	}
	if product {
		// (d_a·A_a)·(d_b·A_b)·A_b^-1 = d_a·d_b·A_a (Eq. 7c).
		m.k = an.InverseMod2N(cb.A(), 64)
	} else {
		m.k = an.DiffFactor(ca, cb)
	}
	return m, nil
}

// stage is the measure step's load and check over one block's survivors
// pos; it returns the staging vectors (bv nil without a second measure).
func (m *fusedMeasures) stage(pos []uint64, kl *keyedLog) (av, bv []uint64) {
	av = m.aBuf[:len(pos)]
	loadList(m.a.col, pos, av)
	if m.hasB {
		bv = m.bBuf[:len(pos)]
		loadList(m.b.col, pos, bv)
	}
	a, b := &m.a, &m.b
	switch {
	case a.code == nil:
	case !m.detect:
		for i, p := range pos {
			da := av[i] * a.inv & a.mask
			if da > a.dmax {
				kl.record(VecLogName(a.col.Name()), p, p)
			}
			av[i] = da + a.base
			if m.hasB {
				db := bv[i] * b.inv & b.mask
				if db > b.dmax {
					kl.record(VecLogName(b.col.Name()), p, p)
				}
				bv[i] = db + b.base
			}
		}
	default:
		for i, p := range pos {
			wa := av[i] & a.mask
			okA := wa*a.inv&a.mask <= a.dmax
			var wb uint64
			okB := true
			if m.hasB {
				wb = bv[i] & b.mask
				okB = wb*b.inv&b.mask <= b.dmax
			}
			if !okA || !okB {
				if !okA {
					kl.record(a.col.Name(), p, p)
				}
				if !okB {
					kl.record(b.col.Name(), p, p)
				}
				wa, wb = 0, 0
			} else if wa, wb = wa+a.lift, wb+b.lift; m.re {
				wa = m.ra.reencode(wa)
				wb = m.rb.reencode(wb)
			}
			av[i] = wa
			if m.hasB {
				bv[i] = wb
			}
		}
	}
	return av, bv
}

// recheck is the Reencoding step that reads the staged A* words back:
// a word that no longer verifies under A* is logged under
// VecLogName(column) at the fact row and the row's words are zeroed.
func (m *fusedMeasures) recheck(pos, av, bv []uint64, kl *keyedLog) {
	for i, p := range pos {
		okA := m.ra.valid(av[i])
		okB := !m.hasB || m.rb.valid(bv[i])
		if okA && okB {
			continue
		}
		if !okA {
			kl.record(VecLogName(m.a.col.Name()), p, p)
		}
		if !okB {
			kl.record(VecLogName(m.b.col.Name()), p, p)
		}
		av[i] = 0
		if m.hasB {
			bv[i] = 0
		}
	}
}

// fusedGroupOut allocates the per-group output vector of a fused
// aggregate: hardened under the widened accumulator code for Continuous,
// plain otherwise (Late decodes while accumulating).
func fusedGroupOut(name string, code *an.Code, numGroups int, detect bool) (*Vec, *an.Code, error) {
	var acc *an.Code
	if code != nil && detect {
		var err error
		if acc, err = wideCode(code); err != nil {
			return nil, nil, err
		}
	}
	return &Vec{Name: name, Vals: make([]uint64, numGroups), Code: acc}, acc, nil
}

// checkGroupSums domain-checks the final group sums under the widened
// code - catching flips during the additions themselves (R1(iii)).
func checkGroupSums(out *Vec, acc *an.Code, detect bool, log *ErrorLog) {
	if acc == nil || !detect {
		return
	}
	for g, s := range out.Vals {
		if _, ok := acc.Check(s); !ok && log != nil {
			log.Record(VecLogName(out.Name), uint64(g))
		}
	}
}

// FusedJoin is one dimension join of the fused probe cascade: the fact
// table's FK column probed against the dimension's build table. A non-nil
// Attr contributes the dimension attribute at the matched build position
// as a group-key component; a nil Attr is a pure semijoin.
type FusedJoin struct {
	FK   *storage.Column
	HT   *hashmap.U64
	Attr *storage.Column
}

// ErrFusedKeyDomain is what the fused probe cascade returns when a
// decoded group-key component does not fit the 16 bits its per-block
// staging gives it - a wide attribute, or under Late a corrupted one
// that decodes to garbage. Attributes are fetched after the last probe,
// so only a row that survives every join raises it. Nothing of the
// attempt reaches the caller's log: the plan reruns the tail through the
// materializing operators, which size group keys by the decoded domain.
var ErrFusedKeyDomain = errors.New("ops: fused group key component exceeds 16 bits")

// fusedJoinCol is a FusedJoin prepared for the block loop: the FK probe
// (probe.go) plus the attribute's softening constants and its group-key
// slot, which also indexes the join's build-position buffer.
type fusedJoinCol struct {
	fkProbe
	attr    fusedCol
	hasAttr bool
	attrIdx int
}

// fetchAttr is the attribute step of one attribute join, run after the
// block's last probe over the rows pos that survived it: fetch the
// group-key component at the build position staged in bp[row-bs],
// verify and decode it into out[row-bs], and mark in drop (bit row-bs)
// a row that must not reach the sink. It reports whether it marked a
// row. A row whose position did not resolve (noPos) is skipped; it is
// marked already.
//
// Mode semantics mirror the materializing GatherAt+GroupBy chain, which
// gathers attributes only for final survivors: a corrupted attribute is
// reported at its *build* position - the repairable coordinate - and
// marks the row (Continuous), or logs into the vec: namespace at the fact
// row and keeps the decoded value (Late, the PreAggregate Δ folded into
// the pass). Marking instead of dropping lets the next attribute join
// check the same row, so every corrupted attribute a survivor reaches is
// logged, as the materializing chain logs it.
func (j *fusedJoinCol) fetchAttr(bs int, pos []uint64, bp []uint32, out []uint16, drop []uint64, detect bool, kl *keyedLog) (bool, error) {
	c := j.attr.col
	switch c.Width() {
	case 1:
		return fetchAttrTyped(c.U8(), &j.attr, bs, pos, bp, out, drop, detect, kl)
	case 2:
		return fetchAttrTyped(c.U16(), &j.attr, bs, pos, bp, out, drop, detect, kl)
	case 4:
		return fetchAttrTyped(c.U32(), &j.attr, bs, pos, bp, out, drop, detect, kl)
	default:
		return fetchAttrTyped(c.U64(), &j.attr, bs, pos, bp, out, drop, detect, kl)
	}
}

func fetchAttrTyped[T an.Unsigned](data []T, a *fusedCol, bs int, pos []uint64, bp []uint32, out []uint16, drop []uint64, detect bool, kl *keyedLog) (bool, error) {
	hard := a.code != nil
	inv, mask, dmax := T(a.inv), T(a.mask), T(a.dmax)
	marked := false
	for _, p := range pos {
		rel := int(p) - bs
		b := bp[rel]
		if b == noPos {
			continue
		}
		v := data[b]
		if hard {
			if v = v * inv & mask; v > dmax {
				if detect {
					kl.record(a.col.Name(), uint64(b), p)
					drop[rel>>6] |= 1 << (uint(rel) & 63)
					marked = true
					continue
				}
				kl.record(VecLogName(a.col.Name()), p, p)
			}
		}
		k := uint64(v) + a.base
		if k >= 1<<16 {
			return false, ErrFusedKeyDomain
		}
		// The 16-bit bound just checked is what lets the staging buffer
		// live in the arena's u16 class.
		out[rel] = uint16(k)
	}
	return marked, nil
}

// dropMarked compacts a block's survivor list and its staged measure
// words (bv nil without a second measure) to the rows drop does not
// mark, clearing their marks: drop is all-zero again afterwards.
func dropMarked(pos, av, bv []uint64, bs int, drop []uint64) ([]uint64, []uint64, []uint64) {
	n := 0
	for i, p := range pos {
		rel := uint(int(p) - bs)
		w, bit := rel>>6, uint64(1)<<(rel&63)
		if drop[w]&bit != 0 {
			drop[w] &^= bit
			continue
		}
		pos[n], av[n] = p, av[i]
		if bv != nil {
			bv[n] = bv[i]
		}
		n++
	}
	if bv != nil {
		bv = bv[:n]
	}
	return pos[:n], av[:n], bv
}

// fusedGroupPart is one morsel's share of the sink: per local group - in
// first-occurrence order - the packed key, the decoded tuple, and the
// accumulated sum; for a sink without group keys the one sum. Unlike
// groupByPart there are no per-row ids: the fused kernel consumes every
// surviving row in-pass.
type fusedGroupPart struct {
	packed []uint64
	groups [][]uint64
	sums   []uint64
	sum    uint64 // the scalar sink's total
}

// mergeSinks merges the per-morsel sinks in morsel order: every local
// first occurrence maps onto a global dense id via one shared table (the
// GroupBy merge), and the local sums add into the global accumulator -
// ring addition, so the totals match one whole-input morsel exactly
// (Eq. 5). One morsel's first-occurrence ids already are the global
// ids, so its sink is the result as it is.
func mergeSinks(parts []fusedGroupPart) fusedGroupPart {
	if len(parts) == 1 {
		return parts[0]
	}
	var merged fusedGroupPart
	var global *hashmap.U64
	for _, part := range parts {
		merged.sum += part.sum
		for li, pk := range part.packed {
			if global == nil {
				global = hashmap.New(1024)
			}
			id, inserted := global.GetOrInsert(pk, uint32(len(merged.groups)))
			if inserted {
				merged.groups = append(merged.groups, part.groups[li])
				merged.sums = append(merged.sums, 0)
			}
			merged.sums[id] += part.sums[li]
		}
	}
	return merged
}

// fusedSink is the aggregate stage of the fused cascade. Without key
// attributes it is scalar: it adds a·b·k over the staged words (the Q1.x
// sum-product). Otherwise it packs the per-row attribute components
// gathered by the join stages into a composite key, assigns
// morsel-local dense group ids, and adds a - b·k (or a) per group. The
// group row is inserted for every staged row, before its contribution
// is known, mirroring the materializing chain where GroupBy runs ahead
// of SumGrouped: a group whose only row the measure step dropped still
// appears, with a zero sum.
type fusedSink struct {
	attrBufs [][]uint16
	nAttrs   int
	k        uint64
	ht       *hashmap.U64
	part     fusedGroupPart
}

// groupOf returns the morsel-local group id of the fact row p in the
// block starting at bs, inserting the group on its first occurrence.
func (s *fusedSink) groupOf(bs int, p uint64) uint32 {
	rel := int(p) - bs
	var packed uint64
	for c := 0; c < s.nAttrs; c++ {
		packed |= uint64(s.attrBufs[c][rel]) << (16 * uint(c))
	}
	id, inserted := s.ht.GetOrInsert(packed, uint32(len(s.part.groups)))
	if inserted {
		tuple := make([]uint64, s.nAttrs)
		for c := range tuple {
			tuple[c] = uint64(s.attrBufs[c][rel])
		}
		s.part.groups = append(s.part.groups, tuple)
		s.part.packed = append(s.part.packed, packed)
		s.part.sums = append(s.part.sums, 0)
	}
	return id
}

// add folds one block's staged words into the sink. Raw code words add
// and multiply in the 64-bit ring (Eq. 5, 7c), so the sums hold a's code
// word of the total, verified under the widened code by checkGroupSums.
func (s *fusedSink) add(bs int, pos, av, bv []uint64) {
	if s.nAttrs == 0 {
		sum := s.part.sum
		for i, a := range av {
			sum += a * bv[i] * s.k
		}
		s.part.sum = sum
		return
	}
	for i, p := range pos {
		id := s.groupOf(bs, p)
		v := av[i]
		if bv != nil {
			v -= bv[i] * s.k
		}
		s.part.sums[id] += v
	}
}

// fusedProbeGroupRange is the one block loop of the fused kernels, their
// morsel kernel over fact rows [start, end): per block, the predicates
// select into a position list or - above bitmapSelThreshold - a block
// bitmap, the join cascade probes the surviving rows (a pure membership
// test per join, but for a table probe's lookup), the attribute step
// resolves, fetches and checks the group-key components of the rows
// that survived every probe, the measure step reads and checks those
// rows' measures, and the sink takes the rows no attribute check marked,
// all without materializing an inter-operator position vector.
// Every stage logs into the morsel's log (log, empty on entry) keyed by
// fact row, and one stable sort by that key before the kernel returns
// makes the entry sequence independent of block and morsel boundaries.
// ms is the call's measure step; the morsel stages into its own buffers.
func fusedProbeGroupRange(preds []fusedPred, joins []fusedJoinCol, ms *fusedMeasures, nAttrs int, flavor Flavor, log *ErrorLog, start, end int) (fusedGroupPart, error) {
	posBuf := borrowU64(fusedBlockRows)
	defer releaseU64(posBuf)
	bmBuf := borrowU64(fusedBlockWords)
	defer releaseU64(bmBuf)
	words := (*bmBuf)[:fusedBlockWords]
	aBuf, bBuf := borrowU64(fusedBlockRows), borrowU64(fusedBlockRows)
	defer releaseU64(aBuf)
	defer releaseU64(bBuf)
	m := *ms
	m.aBuf, m.bBuf = (*aBuf)[:fusedBlockRows], (*bBuf)[:fusedBlockRows]

	sink := fusedSink{attrBufs: make([][]uint16, nAttrs), nAttrs: nAttrs, k: m.k}
	var drop []uint64 // the attribute step's marks, all-zero between blocks
	var bps [4][]uint32
	if nAttrs > 0 {
		sink.ht = hashmap.New(1024)
		dropBuf := borrowU64(fusedBlockWords)
		defer releaseU64(dropBuf)
		drop = (*dropBuf)[:fusedBlockWords]
		clear(drop)
	}
	// One key buffer and one build-position buffer per attribute join.
	for c := 0; c < nAttrs; c++ {
		keys, pos := borrowU16(fusedBlockRows), borrowU32(fusedBlockRows)
		defer releaseU16(keys)
		defer releaseU32(pos)
		sink.attrBufs[c], bps[c] = (*keys)[:fusedBlockRows], (*pos)[:fusedBlockRows]
	}

	// Every stage logs into the morsel's log, keyed by fact row; under
	// Late a probe or resolve drops a corrupted FK silently.
	kl := keyedLog{log: log}
	fkLog, resolveLog := log, &kl
	if !m.detect {
		fkLog, resolveLog = nil, nil
	}

	for bs := start; bs < end; bs += fusedBlockRows {
		be := bs + fusedBlockRows
		if be > end {
			be = end
		}
		var sel []uint64
		useBitmap := len(preds) == 0
		count := be - bs
		if useBitmap {
			fillBitmap(words, count)
		} else {
			// The predicates scan and refine a position list; the block
			// enters the joins as a bitmap when enough rows survive them.
			sel = preds[0].scan(bs, be, 1, flavor, log, *posBuf)
			for pi := 1; pi < len(preds); pi++ {
				sel = preds[pi].refineList(log, sel)
			}
			if count = len(sel); count >= bitmapSelThreshold {
				listToBitmap(words, sel, bs)
				useBitmap = true
			}
		}
		for ji := range joins {
			if count == 0 {
				break
			}
			j := &joins[ji]
			var bp []uint32 // a table probe stages its build positions here
			if j.hasAttr {
				bp = bps[j.attrIdx]
			}
			if useBitmap {
				count = j.probeBitmap(bs, words, bp, fkLog)
			} else {
				sel = j.probeList(bs, sel, bp, fkLog)
				count = len(sel)
			}
			if useBitmap && count < bitmapSelThreshold {
				sel = bitmapToList(words, bs, (*posBuf)[:0])
				useBitmap = false
			}
		}
		// The predicates and probes log at the fact row, so their entries
		// key themselves.
		kl.syncKeys()
		if useBitmap {
			sel = bitmapToList(words, bs, (*posBuf)[:0])
		}
		if len(sel) == 0 {
			continue
		}
		marked := false
		if nAttrs > 0 {
			var err error
			if marked, err = fusedAttrs(joins, bps[:nAttrs], sink.attrBufs, drop, bs, sel, m.detect, resolveLog, &kl); err != nil {
				return fusedGroupPart{}, err
			}
		}
		// The measures of a row an attribute check marked are read and
		// checked too, as the materializing chain gathers them; only the
		// sink never sees the row.
		av, bv := m.stage(sel, &kl)
		if m.re {
			m.recheck(sel, av, bv, &kl)
		}
		if marked {
			sel, av, bv = dropMarked(sel, av, bv, bs, drop)
		}
		sink.add(bs, sel, av, bv)
	}
	kl.sortByRow()
	return sink.part, nil
}

// fusedAttrs is the attribute step of one block over the rows sel that
// survived every probe: per attribute join in order, resolve the build
// positions (dense joins; a table probe staged them as it looked up),
// then fetch, check and stage the group-key component. A row a step
// marks in drop stays in sel, so every later join checks it too; it
// reports whether it marked a row. resolveLog takes the resolve
// detections (nil under Late), kl the fetches'.
func fusedAttrs(joins []fusedJoinCol, bps [][]uint32, keys [][]uint16, drop []uint64, bs int, sel []uint64, detect bool, resolveLog, kl *keyedLog) (bool, error) {
	marked := false
	for ji := range joins {
		j := &joins[ji]
		if !j.hasAttr {
			continue
		}
		bp := bps[j.attrIdx]
		if j.keyPos != nil && j.resolve(bs, sel, bp, drop, resolveLog) {
			marked = true
		}
		m, err := j.fetchAttr(bs, sel, bp, keys[j.attrIdx], drop, detect, kl)
		if err != nil {
			return false, err
		}
		marked = marked || m
	}
	return marked, nil
}

// FusedFilterSemiSumProduct runs the whole Q1.x tail in one pass over the
// fact table: conjunctive range predicates, a semijoin of fk against the
// build table ht, and the sum of a*b over the surviving rows - with no
// intermediate selection or value vector. It is the fused cascade with
// one attribute-free join and a scalar sink. Predicates short-circuit
// left to right, so a row failing the first predicate never touches the
// later columns, exactly like the materializing filter cascade.
func FusedFilterSemiSumProduct(preds []RangePred, fk *storage.Column, ht *hashmap.U64, a, b *storage.Column, o *Opts) (*Vec, error) {
	if b == nil {
		return nil, fmt.Errorf("ops: fused sum-product needs a second factor")
	}
	_, out, err := fusedCascade("sum("+a.Name()+"*"+b.Name()+")", preds, []FusedJoin{{FK: fk, HT: ht}}, a, b, true, o)
	return out, err
}

// FusedProbeGroupSum runs the whole grouped-flight tail (Q2.x/Q3.x) in
// one pass over the fact table: conjunctive range predicates, the
// cascade of dimension-join probes, inline group-id assignment from the
// matched dimension attributes, and the per-group measure sum - with no
// materialized selection, match or value vector between the stages. It
// returns the decoded group tuples in first-occurrence order and the
// per-group sums, the inputs of exec.Query.Finish.
func FusedProbeGroupSum(preds []RangePred, joins []FusedJoin, measure *storage.Column, o *Opts) ([][]uint64, *Vec, error) {
	return fusedCascade("sum("+measure.Name()+")", preds, joins, measure, nil, false, o)
}

// FusedProbeGroupSumDiff is FusedProbeGroupSum with the Q4.x profit
// aggregate: per surviving row it accumulates a-b into the row's group.
// The measures may carry different As (adaptive hardening re-encodes
// them independently): b's words are rescaled into a's code via
// an.DiffFactor before accumulating, so the per-group sums stay code
// words under a's widened code.
func FusedProbeGroupSumDiff(preds []RangePred, joins []FusedJoin, a, b *storage.Column, o *Opts) ([][]uint64, *Vec, error) {
	if b == nil {
		return nil, nil, fmt.Errorf("ops: fused sum-diff needs a second measure")
	}
	return fusedCascade("sum("+a.Name()+"-"+b.Name()+")", preds, joins, a, b, false, o)
}

// fusedCascade is the shared entry point of the fused kernels. scalar
// selects the Q1.x sink - attribute-free joins, the one sum a*b - over
// the grouped one (1..4 key attributes, the sum of a or a-b per group);
// a scalar call returns no group tuples and a one-element Vec.
func fusedCascade(name string, preds []RangePred, joins []FusedJoin, a, b *storage.Column, scalar bool, o *Opts) ([][]uint64, *Vec, error) {
	n := a.Len()
	if b != nil {
		if b.Len() != n {
			return nil, nil, fmt.Errorf("ops: fused aggregate over unequal column lengths %d/%d", n, b.Len())
		}
		if (a.Code() == nil) != (b.Code() == nil) {
			return nil, nil, fmt.Errorf("ops: fused aggregate needs both inputs plain or both hardened")
		}
	}
	for _, p := range preds {
		if p.Col.Len() != n {
			return nil, nil, fmt.Errorf("ops: fused scan over unequal column lengths %d/%d", p.Col.Len(), n)
		}
	}
	if len(joins) == 0 {
		return nil, nil, fmt.Errorf("ops: fused probe cascade needs at least one join")
	}
	if err := o.ctxErr(); err != nil {
		return nil, nil, err
	}
	nAttrs := 0
	fjs := make([]fusedJoinCol, len(joins))
	defer func() {
		for i := range fjs {
			fjs[i].release()
		}
	}()
	for i, j := range joins {
		if j.FK.Len() != n {
			return nil, nil, fmt.Errorf("ops: fused probe over unequal column lengths %d/%d", j.FK.Len(), n)
		}
		fjs[i] = fusedJoinCol{fkProbe: makeFKProbe(j.FK, j.HT, j.Attr != nil)}
		if j.Attr != nil {
			fjs[i].attr = makeFusedCol(j.Attr)
			fjs[i].hasAttr = true
			fjs[i].attrIdx = nAttrs
			nAttrs++
		}
	}
	if scalar && nAttrs != 0 {
		return nil, nil, fmt.Errorf("ops: fused scalar aggregate takes no key attributes, got %d", nAttrs)
	}
	if !scalar && (nAttrs == 0 || nAttrs > 4) {
		return nil, nil, fmt.Errorf("ops: fused group-by supports 1..4 key attributes, got %d", nAttrs)
	}
	if len(preds)+len(joins)+1 > maxFusedStages {
		return nil, nil, fmt.Errorf("ops: fused cascade over %d stages (max %d)", len(preds)+len(joins)+1, maxFusedStages)
	}
	detect := o.detect()
	log := o.log()
	ms, err := makeFusedMeasures(a, b, scalar, o)
	if err != nil {
		return nil, nil, err
	}
	numGroups := 0
	if scalar {
		numGroups = 1
	}

	fps := make([]fusedPred, len(preds))
	for i, p := range preds {
		fps[i] = makeFusedPred(p, o)
		if fps[i].empty {
			out, acc, err := fusedGroupOut(name, ms.sumCode, numGroups, detect)
			if err != nil {
				return nil, nil, err
			}
			checkGroupSums(out, acc, detect, log)
			return nil, out, nil
		}
	}
	flavor := o.flavor()

	// The pass logs into a private log that reaches the caller's unless
	// the pass is abandoned with ErrFusedKeyDomain: that tail is rerun
	// by the materializing operators, which log it all again.
	var plog *ErrorLog
	if log != nil {
		plog = borrowLog()
		defer releaseLog(plog)
	}
	parts, err := runMorsels(o.par(n), n, o, plog, nil, func(mlog *ErrorLog, start, end int) (fusedGroupPart, error) {
		return fusedProbeGroupRange(fps, fjs, &ms, nAttrs, flavor, mlog, start, end)
	})
	if err != nil {
		if !errors.Is(err, ErrFusedKeyDomain) {
			log.Merge(plog) // a stopped scan's detections are the retry's repair list
		}
		return nil, nil, err
	}
	sink := mergeSinks(parts)
	if log != nil {
		log.Merge(plog)
	}
	if !scalar {
		numGroups = len(sink.sums)
	}

	out, acc, err := fusedGroupOut(name, ms.sumCode, numGroups, detect)
	if err != nil {
		return nil, nil, err
	}
	copy(out.Vals, sink.sums)
	if scalar {
		out.Vals[0] = sink.sum
	}
	checkGroupSums(out, acc, detect, log)
	return sink.groups, out, nil
}
