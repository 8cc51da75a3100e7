package ops

import (
	"fmt"
	"math/bits"

	"ahead/internal/an"
	"ahead/internal/hashmap"
)

// wideSumBits is the data width of aggregate accumulators. Sums leave the
// input's data domain quickly, so aggregation widens the domain to 48 bits
// - the resbig limit of Section 6.1 - while keeping the input's A: adding
// raw code words in the 64-bit ring yields (Σd)·A exactly (Eq. 5), which
// the widened code decodes and verifies.
const wideSumBits = 48

// wideCode returns the accumulator code sharing base's constant over the
// widened domain.
func wideCode(base *an.Code) (*an.Code, error) {
	if base == nil {
		return nil, nil
	}
	return an.New(base.A(), wideSumBits)
}

// GroupBy assigns dense group ids to the composite key formed by the given
// vectors (all of equal length). Keys are packed from the decoded values -
// each component claims the bits its decoded domain needs (16 bits
// minimum, so narrow keys keep the historical layout), which admits
// hardened dictionary keys wider than 16 bits as long as the components
// together fit one 64-bit packed key. Hardened inputs are verified when
// detect is set. It returns one group id per row, and for every group the
// decoded key tuple. Rows with corrupted key values are skipped (their id
// is ^uint32(0)).
func GroupBy(keys []*Vec, o *Opts) (gids []uint32, groups [][]uint64, err error) {
	if len(keys) == 0 || len(keys) > 4 {
		return nil, nil, fmt.Errorf("ops: group-by supports 1..4 key columns, got %d", len(keys))
	}
	if err := o.ctxErr(); err != nil {
		return nil, nil, err
	}
	n := keys[0].Len()
	for _, k := range keys[1:] {
		if k.Len() != n {
			return nil, nil, fmt.Errorf("ops: group-by key vectors of unequal length")
		}
	}
	widths, shifts, err := groupKeyLayout(keys)
	if err != nil {
		return nil, nil, err
	}
	p := o.par(n)
	parts, err := runMorsels(p, n, o, o.log(), nil, func(log *ErrorLog, start, end int) (groupByPart, error) {
		return groupByRange(keys, widths, shifts, o, log, start, end)
	})
	if err != nil {
		return nil, nil, err
	}
	if len(parts) == 1 {
		// One morsel's first-occurrence ids already are the global ids.
		return parts[0].gids, parts[0].groups, nil
	}
	// Merge the per-morsel group tables in morsel order: every local
	// first occurrence maps onto a global dense id via one shared table,
	// which reproduces the first-occurrence order of one whole-input
	// morsel because morsels tile the rows left to right.
	gids = make([]uint32, n)
	global := hashmap.New(1024)
	ms := p.MorselSize()
	for m, part := range parts {
		remap := make([]uint32, len(part.packed))
		for li, pk := range part.packed {
			id, inserted := global.GetOrInsert(pk, uint32(len(groups)))
			if inserted {
				groups = append(groups, part.groups[li])
			}
			remap[li] = id
		}
		off := m * ms
		for j, lg := range part.gids {
			if lg == ^uint32(0) {
				gids[off+j] = lg
			} else {
				gids[off+j] = remap[lg]
			}
		}
	}
	return gids, groups, nil
}

// groupKeyLayout assigns each key component its packed-key bit width and
// shift, computed once before the morsel fan-out: the packed key is the
// cross-morsel merge key, so every morsel must lay components out
// identically. Every component is scanned for the width its largest
// value needs - hardened ones in the decoded domain, skipping invalid
// words (their rows are dropped or rejected downstream anyway), so a
// wide-kind column with a small actual domain packs as tightly as its
// plain twin while genuinely wide dictionary keys still claim the bits
// they need. 16 bits per component is the floor, keeping the historical
// layout for narrow keys.
func groupKeyLayout(keys []*Vec) (widths, shifts []uint, err error) {
	widths = make([]uint, len(keys))
	shifts = make([]uint, len(keys))
	var total uint
	for c, k := range keys {
		w := uint(16)
		var max uint64
		if k.Code != nil {
			for _, v := range k.Vals {
				if d, ok := k.Code.Check(v); ok && d > max {
					max = d
				}
			}
		} else {
			for _, v := range k.Vals {
				if v > max {
					max = v
				}
			}
		}
		if b := uint(bits.Len64(max)); b > w {
			w = b
		}
		widths[c] = w
		shifts[c] = total
		total += w
	}
	if total > 64 {
		return nil, nil, fmt.Errorf("ops: group key components need %d packed bits together (max 64)", total)
	}
	return widths, shifts, nil
}

// groupByPart is one morsel's local group table: per-row local ids
// (^uint32(0) for corrupted keys), and per local group - in
// first-occurrence order - the packed key and the decoded tuple.
type groupByPart struct {
	gids   []uint32
	packed []uint64
	groups [][]uint64
}

// groupByRange is the morsel kernel of GroupBy over rows [start, end).
func groupByRange(keys []*Vec, widths, shifts []uint, o *Opts, log *ErrorLog, start, end int) (groupByPart, error) {
	detect := o.detect()
	part := groupByPart{gids: make([]uint32, end-start)}
	ht := hashmap.New(1024)
	for i := start; i < end; i++ {
		var packed uint64
		bad := false
		tuple := make([]uint64, len(keys))
		for c, k := range keys {
			var v uint64
			var ok bool
			if detect {
				v, ok = k.ValueChecked(i, log)
				if !ok {
					bad = true
					break
				}
			} else {
				v = k.Value(i)
			}
			// The layout max-scanned each key's (decoded) domain, so
			// only a corrupt word decoded without detection can
			// overflow its component - reject the query rather than
			// fold the garbage into some other group's key.
			if v >= 1<<widths[c] {
				return groupByPart{}, fmt.Errorf("ops: group key component %q value %d exceeds its %d packed bits", k.Name, v, widths[c])
			}
			tuple[c] = v
			packed |= v << shifts[c]
		}
		if bad {
			part.gids[i-start] = ^uint32(0)
			continue
		}
		id, inserted := ht.GetOrInsert(packed, uint32(len(part.groups)))
		if inserted {
			part.groups = append(part.groups, tuple)
			part.packed = append(part.packed, packed)
		}
		part.gids[i-start] = id
	}
	return part, nil
}

// SumGrouped sums the value vector per group id (see aggregate). Rows
// whose gid is ^uint32(0) (corrupted keys) are skipped.
func SumGrouped(vals *Vec, gids []uint32, numGroups int, o *Opts) (*Vec, error) {
	if vals.Len() != len(gids) {
		return nil, fmt.Errorf("ops: %d values vs %d group ids", vals.Len(), len(gids))
	}
	return aggregate("sum("+vals.Name+")", vals, nil, gids, numGroups, false, o)
}

// SumTotal sums a whole vector into a single value under the widened
// accumulator code (see aggregate).
func SumTotal(vals *Vec, o *Opts) (*Vec, error) {
	return aggregate("sum("+vals.Name+")", vals, nil, nil, 1, false, o)
}

// SumProduct computes Σ a[i]*b[i], the Q1.x revenue aggregate
// (extendedprice * discount). For two hardened inputs the product carries
// A_a*A_b (Eq. 7b); one multiplication with A_b's inverse reduces it to a
// code word of A_a (Eq. 7c), which accumulates under the widened code.
func SumProduct(a, b *Vec, o *Opts) (*Vec, error) {
	if a.Len() != b.Len() {
		return nil, fmt.Errorf("ops: sum-product over unequal lengths %d/%d", a.Len(), b.Len())
	}
	if (a.Code == nil) != (b.Code == nil) {
		return nil, fmt.Errorf("ops: sum-product needs both inputs plain or both hardened")
	}
	return aggregate("sum("+a.Name+"*"+b.Name+")", a, b, nil, 1, true, o)
}

// SumDiffGrouped computes Σ (a[i]-b[i]) per group, the Q4.x profit
// aggregate (revenue - supplycost); a[i] >= b[i] is required for the
// unsigned domain. When both inputs share one code the raw difference
// is the code word of the difference (Eq. 5); when adaptive hardening
// has re-encoded one side under a different A, each b word is rescaled
// by an.DiffFactor so the accumulator stays a code word under a's code.
func SumDiffGrouped(a, b *Vec, gids []uint32, numGroups int, o *Opts) (*Vec, error) {
	if a.Len() != b.Len() || a.Len() != len(gids) {
		return nil, fmt.Errorf("ops: sum-diff length mismatch")
	}
	if (a.Code == nil) != (b.Code == nil) {
		return nil, fmt.Errorf("ops: sum-diff needs both inputs plain or both hardened")
	}
	return aggregate("sum("+a.Name+"-"+b.Name+")", a, b, gids, numGroups, false, o)
}

// aggregate is the one materializing aggregate, in the fused sink's
// shape (fusedSink.add): per row it adds a·b·k into the row's group when
// product is set, a - b·k otherwise, and a alone without b; nil gids
// put every row into group 0. Hardened inputs accumulate as raw code
// words, so each sum is the code word of the group sum under the
// widened accumulator code (Eq. 5). With detect set, every input word is
// verified first - a failure logs under the vec: namespace at its row
// and drops the row - and the final sums are domain-checked, which also
// catches flips during the additions themselves (computational error
// detection, requirement R1(iii)).
func aggregate(name string, a, b *Vec, gids []uint32, numGroups int, product bool, o *Opts) (*Vec, error) {
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	acc, err := wideCode(a.Code)
	if err != nil {
		return nil, err
	}
	// k keeps the added words code words under a's code: 1 on plain
	// inputs and on a difference of one A, an.DiffFactor's rescale of b
	// into a's code otherwise, and for a product A_b's inverse -
	// (d_a·A_a)·(d_b·A_b)·A_b^-1 = d_a·d_b·A_a (Eq. 7c). The inverse is
	// taken in the full 64-bit ring the accumulation runs in, so the
	// congruence is exact whenever the true product fits 64 bits -
	// guaranteed by the register mapping of Section 6.1.
	k := uint64(1)
	switch {
	case b == nil || b.Code == nil:
	case product:
		k = an.InverseMod2N(b.Code.A(), 64)
	default:
		k = an.DiffFactor(a.Code, b.Code)
	}
	out := &Vec{Name: name, Vals: make([]uint64, numGroups), Code: acc}
	detect, log := o.detect(), o.log()
	parts, err := runMorsels(o.par(a.Len()), a.Len(), o, log, dropU64, func(plog *ErrorLog, start, end int) (*[]uint64, error) {
		part := borrowU64Zeroed(numGroups)
		if err := aggregateRange(a, b, gids, k, product, *part, detect, plog, start, end); err != nil {
			releaseU64(part)
			return nil, err
		}
		return part, nil
	})
	if err != nil {
		return nil, err
	}
	// Raw code words add in the 64-bit ring, so per-morsel partial sums
	// merge by addition into exactly the whole-input totals (Eq. 5).
	for _, part := range parts {
		for g, s := range *part {
			out.Vals[g] += s
		}
		releaseU64(part)
	}
	checkGroupSums(out, acc, detect, log)
	return out, nil
}

// aggregateRange is the morsel kernel of aggregate: it accumulates rows
// [start, end) into dst, one sum per group.
func aggregateRange(a, b *Vec, gids []uint32, k uint64, product bool, dst []uint64, detect bool, log *ErrorLog, start, end int) error {
	check := detect && a.Code != nil
	for i := start; i < end; i++ {
		var g uint32
		if gids != nil {
			if g = gids[i]; g == ^uint32(0) {
				continue
			}
			if int(g) >= len(dst) {
				return fmt.Errorf("ops: group id %d out of range %d", g, len(dst))
			}
		}
		av, bv := a.Vals[i], uint64(0)
		if b != nil {
			bv = b.Vals[i]
		}
		if check {
			okA := a.Code.IsValid(av)
			okB := b == nil || b.Code.IsValid(bv)
			if !okA || !okB {
				if log != nil {
					if !okA {
						log.Record(VecLogName(a.Name), uint64(i))
					}
					if !okB {
						log.Record(VecLogName(b.Name), uint64(i))
					}
				}
				continue
			}
		}
		if product {
			dst[g] += av * bv * k
		} else {
			dst[g] += av - bv*k
		}
	}
	return nil
}
