package ops

import (
	"errors"
	"fmt"
	"math/bits"

	"ahead/internal/an"
	"ahead/internal/hashmap"
	"ahead/internal/storage"
)

// Fused kernels (DESIGN.md section 5e).
//
// The materializing pipeline of the SSB plans writes every intermediate -
// selection vectors, gathered value vectors - to memory only for the next
// operator to read it straight back. The kernels below fuse the
// scan->semijoin->aggregate tails of the SSB flights into single passes
// that keep the per-row state in registers, folding Algorithm 1's
// inverse-based detection into the same pass for the Continuous variant.
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
// returns identical position sets, and fused serial and fused parallel
// runs produce byte-identical logs for any morsel size: the kernels log
// per stage and merge the stage logs back into row order per block
// (mergeStageLogs), so the sequence is chunking-independent.
//
// Internally the row loop is blocked - this is the engine's
// vector-at-a-time processing model (DESIGN.md section 5): each block of
// fusedBlockRows fact rows runs the predicate scan Filter runs per morsel
// (fusedPred.scan, pred.go) column-at-a-time into a pooled position
// buffer that stays cache-resident, the join probes run the typed
// kernels of probe.go over the block's bitmap or list, and only the
// per-match tails (attribute fetch, grouping, accumulation) walk the
// surviving rows individually. This keeps the typed tight loops (the
// entire point of the columnar layout) while never materializing a
// full-size intermediate.
//
// The ContinuousReencoding variant fuses too. Its defining trait is
// re-hardening every operator *output* under the next-smaller A; in the
// cascade the outputs that are stored between two steps are the measure
// staging vectors, written by the staging step and read back by the
// accumulation. Under Opts.Reencode each staged measure word is verified
// under its column's A (a failure logs under the base column and drops
// the row, as under Continuous), re-hardened in place to
// an.NextSmaller(A) with Vec.Reencode's multiply, and verified again
// under A* at accumulation (a failure logs under the vec: namespace at
// the fact row and drops the row); the sums accumulate and are checked
// under A*. Group-key attributes are fetched as under Continuous: they
// decode straight into the plain u16 key buffers, so there is no stored
// code word to re-harden. Block position lists, bitmaps and build
// positions stay plain, as under Continuous.

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
// touch-only-survivors property wins. Representations convert lazily:
// dense blocks promote after the first scan, and a probe stage that
// drops a bitmap below the threshold demotes it back to a list.
const bitmapSelThreshold = fusedBlockRows / 8

// maxFusedStages bounds the stages of one fused kernel (predicates,
// joins, the aggregate); the deepest SSB flight (Q4.x: four joins behind
// the scan) uses five.
const maxFusedStages = 8

// maxFusedLogs bounds the per-kernel stage-log array: a join logs its FK
// pass and its attribute pass separately, so both stay in fact-row order
// and the keyed merge interleaves them.
const maxFusedLogs = 2 * maxFusedStages

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

// mergeStageLogs interleaves the per-stage logs of one block back into
// global row order and appends them to dst, then resets the stage logs.
// PosCode.Encode is monotone, so hardened positions compare like plain
// ones. A row logs in at most one stage - a row dropped by a predicate
// never reaches the next stage - so a position merge with stage order as
// the tiebreak reproduces exactly the sequence a row-at-a-time loop
// would have written, independent of block and morsel boundaries.
func mergeStageLogs(dst *ErrorLog, stages []*ErrorLog) {
	var idx [maxFusedStages]int
	for {
		best := -1
		var bestPos uint64
		for s, sl := range stages {
			if idx[s] < len(sl.entries) {
				if p := sl.entries[idx[s]].HardenedPos; best == -1 || p < bestPos {
					best, bestPos = s, p
				}
			}
		}
		if best == -1 {
			break
		}
		sl := stages[best]
		for idx[best] < len(sl.entries) && sl.entries[idx[best]].HardenedPos == bestPos {
			dst.entries = append(dst.entries, sl.entries[idx[best]])
			idx[best]++
		}
	}
	for _, sl := range stages {
		sl.Reset()
	}
}

// keyedLog is a stage log whose entries carry an explicit merge key: the
// hardened form of the *fact row* that caused the entry. The join stages
// of the fused probe cascade log dimension-attribute corruptions at their
// build-side position (the repairable coordinate), which is not monotone
// in fact-row order - so unlike the scan stages, HardenedPos cannot serve
// as the merge key. Keying every entry by its fact row lets
// mergeKeyedStages reproduce the row-at-a-time log order independent of
// block and morsel boundaries, keeping fused serial and fused pooled
// logs byte-identical.
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

// errLog returns the underlying log, nil for a nil receiver.
func (kl *keyedLog) errLog() *ErrorLog {
	if kl == nil {
		return nil
	}
	return kl.log
}

// syncKeys extends the key slice to cover entries the shared scan
// kernels appended directly to the underlying log. Those kernels log at
// the global row position, so the entry's own HardenedPos is its key.
func (kl *keyedLog) syncKeys() {
	if kl == nil || kl.log == nil {
		return
	}
	for len(kl.keys) < len(kl.log.entries) {
		kl.keys = append(kl.keys, kl.log.entries[len(kl.keys)].HardenedPos)
	}
}

// mergeKeyedStages is mergeStageLogs over keyed stage logs: a k-way
// merge by fact-row key with stage order as the tiebreak, appending to
// dst and resetting the stages. PosCode.Encode is monotone, so hardened
// keys compare like plain rows.
func mergeKeyedStages(dst *ErrorLog, stages []keyedLog) {
	var idx [maxFusedLogs]int
	for {
		best := -1
		var bestKey uint64
		for s := range stages {
			if idx[s] < len(stages[s].keys) {
				if k := stages[s].keys[idx[s]]; best == -1 || k < bestKey {
					best, bestKey = s, k
				}
			}
		}
		if best == -1 {
			break
		}
		kl := &stages[best]
		for idx[best] < len(kl.keys) && kl.keys[idx[best]] == bestKey {
			dst.entries = append(dst.entries, kl.log.entries[idx[best]])
			idx[best]++
		}
	}
	for s := range stages {
		stages[s].log.Reset()
		stages[s].keys = stages[s].keys[:0]
	}
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

// reencMeasures is the Reencoding variant's hold on the measure staging
// vectors of a fused aggregation. stage verifies one block's loaded
// words under their columns' A and re-hardens them in place to A*;
// valid verifies them again at accumulation.
type reencMeasures struct {
	a, b   fusedCol
	ra, rb reencCol
	hasB   bool
	drop   []uint64 // bit i: staged row i failed its base check
}

func makeReencMeasures(a, b fusedCol, hasB bool) (*reencMeasures, error) {
	m := &reencMeasures{a: a, b: b, hasB: hasB}
	var err error
	if m.ra, err = makeReencCol(a.col); err != nil {
		return nil, err
	}
	if hasB {
		if m.rb, err = makeReencCol(b.col); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// stage verifies the block's staged words av (and bv) under their
// columns' A - a corrupted word is logged under its base column at the
// fact row and drops the row, as under Continuous - and re-hardens the
// surviving rows' words in place to A*.
func (m *reencMeasures) stage(pos, av, bv []uint64, log *ErrorLog) {
	clear(m.drop[:(len(pos)+63)>>6])
	for i, p := range pos {
		okA := av[i]*m.a.inv&m.a.mask <= m.a.dmax
		okB := !m.hasB || bv[i]*m.b.inv&m.b.mask <= m.b.dmax
		if okA && okB {
			av[i] = m.ra.reencode(av[i] + m.a.lift)
			if m.hasB {
				bv[i] = m.rb.reencode(bv[i] + m.b.lift)
			}
			continue
		}
		m.drop[i>>6] |= 1 << (uint(i) & 63)
		if log != nil {
			if !okA {
				log.Record(m.a.col.Name(), p)
			}
			if !okB {
				log.Record(m.b.col.Name(), p)
			}
		}
	}
}

// valid reports whether staged row i, at fact row p, enters the
// accumulation: it survived stage and its words verify under A*. A word
// corrupted since it was staged is logged under VecLogName(column) at
// the fact row.
func (m *reencMeasures) valid(i int, p uint64, av, bv []uint64, log *ErrorLog) bool {
	if m.drop[i>>6]>>(uint(i)&63)&1 != 0 {
		return false
	}
	okA := m.ra.valid(av[i])
	okB := !m.hasB || m.rb.valid(bv[i])
	if okA && okB {
		return true
	}
	if log != nil {
		if !okA {
			log.Record(VecLogName(m.a.col.Name()), p)
		}
		if !okB {
			log.Record(VecLogName(m.b.col.Name()), p)
		}
	}
	return false
}

// sumProduct is the accumulation step of the Reencoding Q1 pass: the
// staged products reduced into A*_a's code with A*_b's inverse (Eq. 7c).
func (m *reencMeasures) sumProduct(invB uint64, pos, av, bv []uint64, log *ErrorLog) uint64 {
	var sum uint64
	for i, p := range pos {
		if m.valid(i, p, av, bv, log) {
			sum += av[i] * bv[i] * invB
		}
	}
	return sum
}

// FusedFilterSemiSumProduct runs the whole Q1.x tail in one pass over the
// fact table: conjunctive range predicates, a semijoin of fk against the
// build table ht, and the sum of a*b over the surviving rows - with no
// intermediate selection or value vector. Predicates short-circuit left
// to right, so a row failing the first predicate never touches the later
// columns, exactly like the materializing filter cascade.
func FusedFilterSemiSumProduct(preds []RangePred, fk *storage.Column, ht *hashmap.U64, a, b *storage.Column, o *Opts) (*Vec, error) {
	n := fk.Len()
	for _, p := range preds {
		if p.Col.Len() != n {
			return nil, fmt.Errorf("ops: fused scan over unequal column lengths %d/%d", p.Col.Len(), n)
		}
	}
	if a.Len() != n || b.Len() != n {
		return nil, fmt.Errorf("ops: fused sum-product over unequal column lengths")
	}
	if (a.Code() == nil) != (b.Code() == nil) {
		return nil, fmt.Errorf("ops: fused sum-product needs both inputs plain or both hardened")
	}
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	detect := o.detect()
	log := o.log()
	name := "sum(" + a.Name() + "*" + b.Name() + ")"

	ac, bc := makeFusedCol(a), makeFusedCol(b)
	sumCode := ac.code
	var invB uint64
	var re *reencMeasures
	if o.reencode() && ac.code != nil {
		var err error
		if re, err = makeReencMeasures(ac, bc, true); err != nil {
			return nil, err
		}
		sumCode, invB = re.ra.code, an.InverseMod2N(re.rb.code.A(), 64)
	} else if bc.code != nil {
		// (d_a·A_a)·(d_b·A_b)·A_b^-1 = d_a·d_b·A_a (Eq. 7c).
		invB = an.InverseMod2N(bc.code.A(), 64)
	}
	// Stages: the predicates, the probe, the sum - and under Reencoding
	// the staging step before the sum.
	nStages := len(preds) + 2
	if re != nil {
		nStages++
	}
	if nStages > maxFusedStages {
		return nil, fmt.Errorf("ops: fused scan over %d predicates (max %d)", len(preds), maxFusedStages-nStages+len(preds))
	}
	fps := make([]fusedPred, len(preds))
	for i, p := range preds {
		fps[i] = makeFusedPred(p, o)
		if fps[i].empty {
			return fusedSumOut(name, 0, sumCode, detect, log)
		}
	}
	flavor := o.flavor()
	fkc := makeFKProbe(fk, ht, false)

	var sum uint64
	if p := o.par(n); p != nil {
		// Ring addition commutes, so per-morsel partial sums merged in
		// any order equal the serial sum exactly (Eq. 5).
		parts, err := runMorsels(p, n, o, log, nil, func(plog *ErrorLog, start, end int) (uint64, error) {
			return fusedQ1Range(fps, &fkc, ac, bc, invB, re, detect, flavor, plog, start, end), nil
		})
		if err != nil {
			return nil, err
		}
		for _, s := range parts {
			sum += s
		}
	} else {
		sum = fusedQ1Range(fps, &fkc, ac, bc, invB, re, detect, flavor, log, 0, n)
	}
	return fusedSumOut(name, sum, sumCode, detect, log)
}

// fusedQ1Range is the morsel kernel of FusedFilterSemiSumProduct over
// fact rows [start, end): per block, the first predicate scans
// column-at-a-time into a pooled position buffer, the remaining
// predicates and the semijoin probe compact it in place, and the
// survivors' factors are fetched width-typed into two staging vectors
// the accumulation walks - under Reencoding (re non-nil) after they are
// staged: verified under A and re-hardened to A*.
func fusedQ1Range(preds []fusedPred, fk *fkProbe, a, b fusedCol, invB uint64, re *reencMeasures, detect bool, flavor Flavor, log *ErrorLog, start, end int) uint64 {
	buf := borrowU64(fusedBlockRows)
	defer releaseU64(buf)
	aBuf, bBuf := borrowU64(fusedBlockRows), borrowU64(fusedBlockRows)
	defer releaseU64(aBuf)
	defer releaseU64(bBuf)
	// One pooled log per stage - predicates, probe, sum (under
	// Reencoding staging, then sum) - merged back into row order per
	// block, so the entry sequence is independent of block and morsel
	// boundaries.
	var stages [maxFusedStages]*ErrorLog
	nStages := len(preds) + 2
	if re != nil {
		nStages++
		rm := *re // the drop bitmap is the morsel's own
		re = &rm
		dropBuf := borrowU64(fusedBlockWords)
		defer releaseU64(dropBuf)
		re.drop = (*dropBuf)[:fusedBlockWords]
	}
	if log != nil {
		for s := 0; s < nStages; s++ {
			stages[s] = borrowLog()
		}
		defer func() {
			for s := 0; s < nStages; s++ {
				releaseLog(stages[s])
			}
		}()
	}
	var fkLog *ErrorLog // Late drops a corrupted FK silently
	if detect {
		fkLog = stages[len(preds)]
	}

	var sum uint64
	for bs := start; bs < end; bs += fusedBlockRows {
		be := bs + fusedBlockRows
		if be > end {
			be = end
		}
		var pos []uint64
		if len(preds) == 0 {
			pos = (*buf)[:be-bs]
			for i := range pos {
				pos[i] = uint64(bs + i)
			}
		} else {
			pos = preds[0].scan(bs, be, 1, flavor, stages[0], *buf)
			for pi := 1; pi < len(preds); pi++ {
				pos = preds[pi].refineList(stages[pi], pos)
			}
		}
		pos = fk.probeList(bs, pos, nil, fkLog)
		av, bv := (*aBuf)[:len(pos)], (*bBuf)[:len(pos)]
		loadList(a.col, pos, av)
		loadList(b.col, pos, bv)
		if re != nil {
			re.stage(pos, av, bv, stages[nStages-2])
			sum += re.sumProduct(invB, pos, av, bv, stages[nStages-1])
		} else {
			sum += fusedSumProduct(a, b, invB, detect, stages[nStages-1], pos, av, bv)
		}
		if log != nil {
			mergeStageLogs(log, stages[:nStages])
		}
	}
	return sum
}

// fusedSumProduct accumulates the sum-product over one block's
// surviving positions; av and bv hold the factors' raw words, aligned
// with pos.
func fusedSumProduct(a, b fusedCol, invB uint64, detect bool, log *ErrorLog, pos, av, bv []uint64) uint64 {
	var sum uint64
	switch {
	case a.code == nil:
		for i := range pos {
			sum += av[i] * bv[i]
		}
	case detect:
		for i, p := range pos {
			da := av[i] * a.inv & a.mask
			db := bv[i] * b.inv & b.mask
			okA, okB := da <= a.dmax, db <= b.dmax
			if !okA || !okB {
				if log != nil {
					if !okA {
						log.Record(a.col.Name(), p)
					}
					if !okB {
						log.Record(b.col.Name(), p)
					}
				}
				continue
			}
			sum += (av[i] + a.lift) * (bv[i] + b.lift) * invB
		}
	default:
		// LateOnetime: the PreAggregate Δ folded into the pass - verify
		// and log, but decode and accumulate regardless, like Vec.Soften
		// with detect set.
		for i, p := range pos {
			da := av[i] * a.inv & a.mask
			db := bv[i] * b.inv & b.mask
			if log != nil {
				if da > a.dmax {
					log.Record(VecLogName(a.col.Name()), p)
				}
				if db > b.dmax {
					log.Record(VecLogName(b.col.Name()), p)
				}
			}
			sum += (da + a.base) * (db + b.base)
		}
	}
	return sum
}

// fusedSumOut wraps a fused scalar sum into the Vec the materializing
// SumProduct would have produced: plain when the inputs decode to plain
// (Unprotected/Early/Late), hardened under the widened accumulator code
// with a final domain check when Continuous.
func fusedSumOut(name string, sum uint64, code *an.Code, detect bool, log *ErrorLog) (*Vec, error) {
	if code == nil || !detect {
		return &Vec{Name: name, Vals: []uint64{sum}}, nil
	}
	acc, err := wideCode(code)
	if err != nil {
		return nil, err
	}
	out := &Vec{Name: name, Vals: []uint64{sum}, Code: acc}
	if _, ok := acc.Check(sum); !ok && log != nil {
		log.Record(VecLogName(name), 0)
	}
	return out, nil
}

// fusedGroupOut allocates the per-group output vector of a fused grouped
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

// fusedGroupCheck domain-checks the final group sums under the widened
// code - catching flips during the additions themselves (R1(iii)).
func fusedGroupCheck(out *Vec, acc *an.Code, detect bool, log *ErrorLog) {
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
// that decodes to garbage. Nothing of the attempt reaches the caller's
// log: the plan reruns the tail through the materializing operators,
// which size group keys by the decoded domain.
var ErrFusedKeyDomain = errors.New("ops: fused group key component exceeds 16 bits")

// fusedJoinCol is a FusedJoin prepared for the block loop: the FK probe
// (probe.go) plus the attribute's softening constants and its group-key
// slot.
type fusedJoinCol struct {
	fkProbe
	attr    fusedCol
	hasAttr bool
	attrIdx int
}

// fetchAttr is the attribute pass of one join stage over a block's
// survivors - a bitmap when pos is nil, else a list: fetch the group-key
// component at the build position the probe left in bp[row-bs], verify
// and decode it into out[row-bs], and drop what must not survive. It
// returns the surviving list and count.
//
// Mode semantics mirror the materializing GatherAt+GroupBy chain: a
// corrupted attribute is reported at its *build* position - the
// repairable coordinate - and drops the row (Continuous), or logs into
// the vec: namespace at the fact row and keeps the decoded value (Late,
// the PreAggregate Δ folded into the pass).
func (j *fusedJoinCol) fetchAttr(bs int, words, pos []uint64, bp []uint32, out []uint16, detect bool, kl *keyedLog) ([]uint64, int, error) {
	c := j.attr.col
	switch c.Width() {
	case 1:
		return fetchAttrTyped(c.U8(), &j.attr, bs, words, pos, bp, out, detect, kl)
	case 2:
		return fetchAttrTyped(c.U16(), &j.attr, bs, words, pos, bp, out, detect, kl)
	case 4:
		return fetchAttrTyped(c.U32(), &j.attr, bs, words, pos, bp, out, detect, kl)
	default:
		return fetchAttrTyped(c.U64(), &j.attr, bs, words, pos, bp, out, detect, kl)
	}
}

func fetchAttrTyped[T an.Unsigned](data []T, a *fusedCol, bs int, words, pos []uint64, bp []uint32, out []uint16, detect bool, kl *keyedLog) ([]uint64, int, error) {
	hard := a.code != nil
	inv, mask, dmax := T(a.inv), T(a.mask), T(a.dmax)
	// one reports whether the row at block offset rel survives.
	one := func(rel int) (bool, error) {
		v := data[bp[rel]]
		if hard {
			if v = v * inv & mask; v > dmax {
				if detect {
					kl.record(a.col.Name(), uint64(bp[rel]), uint64(bs+rel))
					return false, nil
				}
				kl.record(VecLogName(a.col.Name()), uint64(bs+rel), uint64(bs+rel))
			}
		}
		k := uint64(v) + a.base
		if k >= 1<<16 {
			return false, ErrFusedKeyDomain
		}
		// The 16-bit bound just checked is what lets the staging buffer
		// live in the arena's u16 class.
		out[rel] = uint16(k)
		return true, nil
	}
	count := 0
	if pos != nil {
		kept := pos[:0]
		for _, p := range pos {
			keep, err := one(int(p) - bs)
			if err != nil {
				return nil, 0, err
			}
			if keep {
				kept = append(kept, p)
			}
		}
		return kept, len(kept), nil
	}
	for w, word := range words {
		for t := word; t != 0; t &= t - 1 {
			b := bits.TrailingZeros64(t)
			keep, err := one(w<<6 + b)
			if err != nil {
				return nil, 0, err
			}
			if keep {
				count++
			} else {
				words[w] &^= 1 << uint(b)
			}
		}
	}
	return nil, count, nil
}

// fusedGroupPart is one morsel's local group table: per local group - in
// first-occurrence order - the packed key, the decoded tuple, and the
// accumulated sum. Unlike groupByPart there are no per-row ids: the
// fused kernel consumes every surviving row in-pass.
type fusedGroupPart struct {
	packed []uint64
	groups [][]uint64
	sums   []uint64
}

// fusedGrouper is the group/aggregate stage of the fused probe cascade:
// it packs the per-row attribute components gathered by the join stages
// into a composite key, assigns morsel-local dense group ids, and
// accumulates the measure (or measure difference) per group.
type fusedGrouper struct {
	attrBufs [][]uint16
	nAttrs   int
	ma, mb   fusedCol
	maBuf    []uint64 // the block's measure words, aligned with its position list
	mbBuf    []uint64
	kb       uint64 // an.DiffFactor(ma, mb): rescales b words into a's code
	hasB     bool
	detect   bool
	re       *reencMeasures // non-nil under Reencoding: stage, then accumulate
	ht       *hashmap.U64
	part     fusedGroupPart
}

// groupOf returns the morsel-local group id of the fact row p in the
// block starting at bs, inserting the group on its first occurrence.
func (g *fusedGrouper) groupOf(bs int, p uint64) uint32 {
	rel := int(p) - bs
	var packed uint64
	for c := 0; c < g.nAttrs; c++ {
		packed |= uint64(g.attrBufs[c][rel]) << (16 * uint(c))
	}
	id, inserted := g.ht.GetOrInsert(packed, uint32(len(g.part.groups)))
	if inserted {
		tuple := make([]uint64, g.nAttrs)
		for c := range tuple {
			tuple[c] = uint64(g.attrBufs[c][rel])
		}
		g.part.groups = append(g.part.groups, tuple)
		g.part.packed = append(g.part.packed, packed)
		g.part.sums = append(g.part.sums, 0)
	}
	return id
}

// consume folds one block's surviving fact rows into the group table:
// the measures are fetched width-typed into the staging vectors, then
// every row finds its group and accumulates. The group row is inserted
// *before* the measure is validated, mirroring the materializing chain
// where GroupBy runs ahead of SumGrouped: a group whose only row carries
// a corrupted measure still appears, with a zero contribution
// (Continuous logs the measure's base column at the fact row and skips
// the accumulation only).
func (g *fusedGrouper) consume(bs int, pos []uint64, kl *keyedLog) {
	av, bv := g.load(pos)
	for i, p := range pos {
		id := g.groupOf(bs, p)
		a := av[i]
		var b uint64
		if g.hasB {
			b = bv[i]
		}
		switch {
		case g.ma.code == nil:
			g.part.sums[id] += a - b
		case g.detect:
			da := a * g.ma.inv & g.ma.mask
			okA := da <= g.ma.dmax
			okB := true
			if g.hasB {
				db := b * g.mb.inv & g.mb.mask
				okB = db <= g.mb.dmax
			}
			if !okA || !okB {
				if !okA {
					kl.record(g.ma.col.Name(), p, p)
				}
				if !okB {
					kl.record(g.mb.col.Name(), p, p)
				}
				continue
			}
			// Raw code words add and subtract in the 64-bit ring, with b
			// rescaled into a's code when their As differ (kb is 1 when
			// they agree), so the accumulator holds a's code word of the
			// group total (Eq. 5), verified under the widened code by
			// fusedGroupCheck.
			g.part.sums[id] += a + g.ma.lift - (b+g.mb.lift)*g.kb
		default:
			// LateOnetime: verify, log into the vec: namespace at the
			// fact row, and accumulate the softened value regardless.
			da := a * g.ma.inv & g.ma.mask
			if da > g.ma.dmax {
				kl.record(VecLogName(g.ma.col.Name()), p, p)
			}
			if g.hasB {
				db := b * g.mb.inv & g.mb.mask
				if db > g.mb.dmax {
					kl.record(VecLogName(g.mb.col.Name()), p, p)
				}
				g.part.sums[id] += da + g.ma.base - (db + g.mb.base)
			} else {
				g.part.sums[id] += da + g.ma.base
			}
		}
	}
}

// load fetches the block's measure words width-typed into the staging
// vectors, aligned with pos; bv is nil without a second measure.
func (g *fusedGrouper) load(pos []uint64) (av, bv []uint64) {
	av = g.maBuf[:len(pos)]
	loadList(g.ma.col, pos, av)
	if g.hasB {
		bv = g.mbBuf[:len(pos)]
		loadList(g.mb.col, pos, bv)
	}
	return av, bv
}

// stage is consume's first half under Reencoding: the block's measure
// words are loaded, verified under their columns' A (a failure logs
// under the base column at the fact row) and re-hardened in place to A*.
func (g *fusedGrouper) stage(pos []uint64, kl *keyedLog) {
	av, bv := g.load(pos)
	g.re.stage(pos, av, bv, kl.errLog())
	kl.syncKeys()
}

// accumulate is consume's second half under Reencoding: every staged row
// finds its group - inserted before the measure is validated, as in
// consume - and a row whose words verify under A* adds into it (a word
// corrupted since staging logs under VecLogName(column) at the fact
// row). The sums are A*_a code words, b rescaled by kb.
func (g *fusedGrouper) accumulate(bs int, pos []uint64, kl *keyedLog) {
	av, bv := g.maBuf[:len(pos)], g.mbBuf[:len(pos)]
	log := kl.errLog()
	for i, p := range pos {
		id := g.groupOf(bs, p)
		if !g.re.valid(i, p, av, bv, log) {
			continue
		}
		s := av[i]
		if g.hasB {
			s -= bv[i] * g.kb
		}
		g.part.sums[id] += s
	}
	kl.syncKeys()
}

// fusedProbeGroupRange is the morsel kernel of FusedProbeGroupSum[Diff]
// over fact rows [start, end): per block, the predicates select into a
// position list or - above bitmapSelThreshold - a block bitmap, the join
// cascade probes the surviving rows (gathering group-key components as
// it matches), and the grouper packs keys and accumulates the measure,
// all without materializing an inter-operator position vector. Stage
// logs are keyed by fact row and k-way merged back per block, so the
// entry sequence is independent of block and morsel boundaries.
func fusedProbeGroupRange(preds []fusedPred, joins []fusedJoinCol, ma, mb fusedCol, hasB bool, re *reencMeasures, nAttrs int, detect bool, flavor Flavor, log *ErrorLog, start, end int) (fusedGroupPart, error) {
	posBuf := borrowU64(fusedBlockRows)
	defer releaseU64(posBuf)
	bmBuf := borrowU64(fusedBlockWords)
	defer releaseU64(bmBuf)
	words := (*bmBuf)[:fusedBlockWords]
	bpBuf := borrowU32(fusedBlockRows)
	defer releaseU32(bpBuf)
	bp := (*bpBuf)[:fusedBlockRows]
	maBuf, mbBuf := borrowU64(fusedBlockRows), borrowU64(fusedBlockRows)
	defer releaseU64(maBuf)
	defer releaseU64(mbBuf)

	g := &fusedGrouper{
		attrBufs: make([][]uint16, nAttrs),
		nAttrs:   nAttrs,
		ma:       ma,
		mb:       mb,
		maBuf:    (*maBuf)[:fusedBlockRows],
		mbBuf:    (*mbBuf)[:fusedBlockRows],
		kb:       an.DiffFactor(ma.code, mb.code),
		hasB:     hasB,
		detect:   detect,
		ht:       hashmap.New(1024),
	}
	if re != nil {
		rm := *re // the drop bitmap is the morsel's own
		dropBuf := borrowU64(fusedBlockWords)
		defer releaseU64(dropBuf)
		rm.drop = (*dropBuf)[:fusedBlockWords]
		g.re, g.kb = &rm, an.DiffFactor(rm.ra.code, rm.rb.code)
	}
	var attrPtrs [4]*[]uint16
	for c := 0; c < nAttrs; c++ {
		attrPtrs[c] = borrowU16(fusedBlockRows)
		g.attrBufs[c] = (*attrPtrs[c])[:fusedBlockRows]
		defer releaseU16(attrPtrs[c])
	}

	// Stage logs: one per predicate, two per join (FK pass, attribute
	// pass), one for the grouper - two under Reencoding (stage,
	// accumulate).
	nLogs := len(preds) + 2*len(joins) + 1
	if re != nil {
		nLogs++
	}
	var stages [maxFusedLogs]keyedLog
	stageAt := func(s int) *keyedLog {
		if log == nil {
			return nil
		}
		return &stages[s]
	}
	if log != nil {
		for s := 0; s < nLogs; s++ {
			stages[s].log = borrowLog()
		}
		defer func() {
			for s := 0; s < nLogs; s++ {
				releaseLog(stages[s].log)
			}
		}()
	}
	stageLog := func(s int) *ErrorLog {
		if log == nil {
			return nil
		}
		return stages[s].log
	}

	for bs := start; bs < end; bs += fusedBlockRows {
		be := bs + fusedBlockRows
		if be > end {
			be = end
		}
		var sel []uint64
		useBitmap := false
		count := 0
		if len(preds) == 0 {
			fillBitmap(words, be-bs)
			useBitmap, count = true, be-bs
		} else {
			sel = preds[0].scan(bs, be, 1, flavor, stageLog(0), *posBuf)
			stageAt(0).syncKeys()
			count = len(sel)
			if count >= bitmapSelThreshold {
				listToBitmap(words, sel, bs)
				useBitmap = true
			}
			for pi := 1; pi < len(preds); pi++ {
				if useBitmap {
					count = preds[pi].refineBitmap(bs, stageLog(pi), words)
					if count < bitmapSelThreshold {
						sel = bitmapToList(words, bs, (*posBuf)[:0])
						useBitmap = false
					}
				} else {
					sel = preds[pi].refineList(stageLog(pi), sel)
					count = len(sel)
				}
				stageAt(pi).syncKeys()
			}
		}
		for ji := range joins {
			if count == 0 {
				break
			}
			j := &joins[ji]
			fkStage := len(preds) + 2*ji
			var fkLog *ErrorLog // Late drops a corrupted FK silently
			if detect {
				fkLog = stageLog(fkStage)
			}
			if useBitmap {
				count = j.probeBitmap(bs, words, bp, fkLog)
			} else {
				sel = j.probeList(bs, sel, bp, fkLog)
				count = len(sel)
			}
			// The probe logs at the fact row, so its entries key themselves.
			stageAt(fkStage).syncKeys()
			if j.hasAttr && count > 0 {
				var list []uint64
				if !useBitmap {
					list = sel
				}
				var err error
				sel, count, err = j.fetchAttr(bs, words, list, bp, g.attrBufs[j.attrIdx], detect, stageAt(fkStage+1))
				if err != nil {
					return fusedGroupPart{}, err
				}
			}
			if useBitmap && count < bitmapSelThreshold {
				sel = bitmapToList(words, bs, (*posBuf)[:0])
				useBitmap = false
			}
		}
		if count > 0 {
			if useBitmap {
				sel = bitmapToList(words, bs, (*posBuf)[:0])
			}
			if g.re != nil {
				g.stage(sel, stageAt(nLogs-2))
				g.accumulate(bs, sel, stageAt(nLogs-1))
			} else {
				g.consume(bs, sel, stageAt(nLogs-1))
			}
		}
		if log != nil {
			mergeKeyedStages(log, stages[:nLogs])
		}
	}
	return g.part, nil
}

// FusedProbeGroupSum runs the whole grouped-flight tail (Q2.x/Q3.x) in
// one pass over the fact table: conjunctive range predicates, the
// cascade of dimension-join probes, inline group-id assignment from the
// matched dimension attributes, and the per-group measure sum - with no
// materialized selection, match or value vector between the stages. It
// returns the decoded group tuples in first-occurrence order and the
// per-group sums, the inputs of exec.Query.Finish.
func FusedProbeGroupSum(preds []RangePred, joins []FusedJoin, measure *storage.Column, o *Opts) ([][]uint64, *Vec, error) {
	return fusedProbeGroup(preds, joins, measure, nil, o)
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
	return fusedProbeGroup(preds, joins, a, b, o)
}

// fusedProbeGroup is the shared entry point of the fused probe cascade.
func fusedProbeGroup(preds []RangePred, joins []FusedJoin, a, b *storage.Column, o *Opts) ([][]uint64, *Vec, error) {
	hasB := b != nil
	n := a.Len()
	name := "sum(" + a.Name() + ")"
	if hasB {
		name = "sum(" + a.Name() + "-" + b.Name() + ")"
		if b.Len() != n {
			return nil, nil, fmt.Errorf("ops: fused sum-diff over unequal column lengths %d/%d", n, b.Len())
		}
		if (a.Code() == nil) != (b.Code() == nil) {
			return nil, nil, fmt.Errorf("ops: fused sum-diff needs both inputs plain or both hardened")
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
	if nAttrs == 0 || nAttrs > 4 {
		return nil, nil, fmt.Errorf("ops: fused group-by supports 1..4 key attributes, got %d", nAttrs)
	}
	if len(preds)+len(joins)+1 > maxFusedStages {
		return nil, nil, fmt.Errorf("ops: fused cascade over %d stages (max %d)", len(preds)+len(joins)+1, maxFusedStages)
	}
	detect := o.detect()
	log := o.log()
	ac := makeFusedCol(a)
	var bc fusedCol
	if hasB {
		bc = makeFusedCol(b)
	}
	// Under Reencoding the measures are staged under their next-smaller
	// A, so the sums carry A*_a.
	sumCode := ac.code
	var re *reencMeasures
	if o.reencode() && ac.code != nil {
		var err error
		if re, err = makeReencMeasures(ac, bc, hasB); err != nil {
			return nil, nil, err
		}
		sumCode = re.ra.code
	}

	fps := make([]fusedPred, len(preds))
	for i, p := range preds {
		fps[i] = makeFusedPred(p, o)
		if fps[i].empty {
			out, acc, err := fusedGroupOut(name, sumCode, 0, detect)
			if err != nil {
				return nil, nil, err
			}
			fusedGroupCheck(out, acc, detect, log)
			return nil, out, nil
		}
	}
	flavor := o.flavor()

	// The pass logs into a private log that reaches the caller's only
	// when it completes or stops (ErrStopped): a tail abandoned with
	// ErrFusedKeyDomain is rerun by the materializing operators, which
	// log it all again.
	var plog *ErrorLog
	if log != nil {
		plog = borrowLog()
		defer releaseLog(plog)
	}
	var groups [][]uint64
	var sums []uint64
	if p := o.par(n); p != nil {
		parts, err := runMorsels(p, n, o, plog, nil, func(mlog *ErrorLog, start, end int) (fusedGroupPart, error) {
			return fusedProbeGroupRange(fps, fjs, ac, bc, hasB, re, nAttrs, detect, flavor, mlog, start, end)
		})
		if errors.Is(err, ErrStopped) {
			log.Merge(plog) // the detections are the retry's repair list
		}
		if err != nil {
			return nil, nil, err
		}
		// Merge the per-morsel group tables in morsel order: every local
		// first occurrence maps onto a global dense id via one shared
		// table (the GroupBy merge), and the local sums add into the
		// global accumulator - ring addition, so the totals match the
		// serial pass exactly (Eq. 5).
		global := hashmap.New(1024)
		for _, part := range parts {
			for li, pk := range part.packed {
				id, inserted := global.GetOrInsert(pk, uint32(len(groups)))
				if inserted {
					groups = append(groups, part.groups[li])
					sums = append(sums, 0)
				}
				sums[id] += part.sums[li]
			}
		}
	} else {
		part, err := fusedProbeGroupRange(fps, fjs, ac, bc, hasB, re, nAttrs, detect, flavor, plog, 0, n)
		if err != nil {
			return nil, nil, err
		}
		groups, sums = part.groups, part.sums
	}
	if log != nil {
		log.Merge(plog)
	}

	out, acc, err := fusedGroupOut(name, sumCode, len(groups), detect)
	if err != nil {
		return nil, nil, err
	}
	copy(out.Vals, sums)
	fusedGroupCheck(out, acc, detect, log)
	return groups, out, nil
}
