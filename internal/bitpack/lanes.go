package bitpack

import (
	"fmt"
	"math/bits"

	"ahead/internal/an"
)

// Lanes is the lane-aligned sibling of Vector: values occupy fixed
// fields that never straddle a 64-bit word. Dense back-to-back packing
// (Vector) minimizes footprint but a value crossing a word boundary
// defeats register-parallel comparison; the lane layout trades a few
// padding bits per word for the ability to evaluate a range predicate
// on every lane of a word at once with SWAR arithmetic (the
// scalar-register stand-in for the SIMD-scan comparisons of the paper's
// references [82, 83]).
//
// Two field layouts exist, chosen per payload width W for maximum lane
// density:
//
//   - Delimiter layout (F = W+1): lane j occupies bits [j*F, j*F+W),
//     a spare delimiter bit - always stored as zero - sits at j*F+W and
//     absorbs the borrow of a per-lane subtraction, so an unsigned
//     comparison of all K = 64/F lanes is three subtractions and a mask.
//   - Delimiter-free layout (F = W): when dropping the spare bit gains
//     a lane (64/W > 64/(W+1): W = 16 packs four lanes instead of
//     three, W = 8 packs eight instead of seven), the payload fills the
//     whole field and the comparison splits each lane at its MSB - the
//     high/low-split borrow construction of the SWAR literature - for
//     ~4x the operations but K comparisons that a spare-bit layout of
//     the same width could never reach.
//
// In both layouts the top 64-K*F bits are unused padding and the match
// bit of lane j is its top field bit j*F+F-1 (the delimiter, or the
// payload MSB).
type Lanes struct {
	bits  uint // W: payload bits per lane, 1..31
	field uint // F: W+1 (delimiter layout) or W (delimiter-free)
	delim bool // true when the field carries a spare delimiter bit
	k     int  // lanes per 64-bit word
	n     int  // number of stored values
	words []uint64
	code  *an.Code // non-nil iff the lanes hold AN code words

	lmask uint64 // payload mask of lane 0
	fmask uint64 // field mask of lane 0
	hmask uint64 // match-bit mask: top field bit of every lane
	bcast uint64 // broadcast multiplier: sum of 1<<(j*F)
	divM  uint64 // round-up reciprocal of K: mulhi(i, divM) == i/K for i < 2^58
}

// MaxLaneBits is the widest payload the lane layout accepts: one lane
// plus its delimiter must leave room for at least a second lane, or the
// layout degenerates to a wide array.
const MaxLaneBits = 31

// NewLanes creates an empty lane-aligned vector of the given payload
// width.
func NewLanes(bitsW uint) (*Lanes, error) {
	if bitsW == 0 || bitsW > MaxLaneBits {
		return nil, fmt.Errorf("bitpack: lane payload width must be in [1,%d], got %d", MaxLaneBits, bitsW)
	}
	l := &Lanes{bits: bitsW, field: bitsW + 1, delim: true}
	if 64/bitsW > 64/(bitsW+1) {
		// Dropping the delimiter gains a lane: take the denser layout
		// and pay the wider comparison (see ScanRangeRawInto).
		l.field, l.delim = bitsW, false
	}
	l.k = 64 / int(l.field)
	l.lmask = maskFor(bitsW)
	l.fmask = maskFor(l.field)
	for j := 0; j < l.k; j++ {
		l.hmask |= 1 << (uint(j)*l.field + l.field - 1)
		l.bcast |= 1 << (uint(j) * l.field)
	}
	// Index splitting i -> (i/K, i%K) sits on every random access; a
	// hardware divide there dominates the gather and probe kernels.
	// divM is the round-up fixed-point reciprocal of K at 64 fractional
	// bits: K*divM = 2^64 + e for some e in [0, K], so the high word of
	// i*divM is floor((i + i*e/2^64)/K), which equals i/K whenever
	// i*e < 2^64 - guaranteed for every i < 2^58 since e <= K <= 64.
	l.divM = ^uint64(0)/uint64(l.k) + 1
	return l, nil
}

// idx splits a lane index into its word index and in-word shift without a
// hardware divide (exact for i < 2^58, far beyond any column length).
func (l *Lanes) idx(i int) (int, uint) {
	hi, _ := bits.Mul64(uint64(i), l.divM)
	w := int(hi)
	return w, uint(i-w*l.k) * l.field
}

// NewHardenedLanes creates an empty lane vector storing code words of
// the given AN code.
func NewHardenedLanes(code *an.Code) (*Lanes, error) {
	l, err := NewLanes(code.CodeBits())
	if err != nil {
		return nil, err
	}
	l.code = code
	return l, nil
}

// PackLanes builds a lane vector from plain values, hardening each one
// when code is non-nil.
func PackLanes(values []uint64, bitsW uint, code *an.Code) (*Lanes, error) {
	var l *Lanes
	var err error
	if code != nil {
		l, err = NewHardenedLanes(code)
	} else {
		l, err = NewLanes(bitsW)
	}
	if err != nil {
		return nil, err
	}
	l.Grow(len(values))
	for _, d := range values {
		l.AppendValue(d)
	}
	return l, nil
}

// Bits returns the payload width W.
func (l *Lanes) Bits() uint { return l.bits }

// PerWord returns K, the number of lanes per 64-bit word.
func (l *Lanes) PerWord() int { return l.k }

// Len returns the number of stored values.
func (l *Lanes) Len() int { return l.n }

// Code returns the AN code of a hardened lane vector, or nil.
func (l *Lanes) Code() *an.Code { return l.code }

// Bytes returns the packed storage footprint.
func (l *Lanes) Bytes() int { return len(l.words) * 8 }

// Grow pre-sizes the word array for n additional values.
func (l *Lanes) Grow(n int) {
	need := (l.n + n + l.k - 1) / l.k
	if cap(l.words) < need {
		words := make([]uint64, len(l.words), need)
		copy(words, l.words)
		l.words = words
	}
}

// Append adds a raw value (a code word on hardened lane vectors),
// masked to the payload width.
func (l *Lanes) Append(raw uint64) {
	w, sh := l.idx(l.n)
	if sh == 0 {
		l.words = append(l.words, 0)
	}
	l.words[w] |= (raw & l.lmask) << sh
	l.n++
}

// AppendSlice appends raw values from a typed array: whole words are
// assembled in a register, K lanes per store, instead of one
// index-split read-modify-write per value.
func AppendSlice[T an.Unsigned](l *Lanes, src []T) {
	l.Grow(len(src))
	for len(src) > 0 && l.n%l.k != 0 {
		l.Append(uint64(src[0]))
		src = src[1:]
	}
	k, field, lmask := l.k, l.field, l.lmask
	for ; len(src) >= k; src = src[k:] {
		var word uint64
		for j := k - 1; j >= 0; j-- {
			word = word<<field | uint64(src[j])&lmask
		}
		l.words = append(l.words, word)
		l.n += k
	}
	for _, v := range src {
		l.Append(uint64(v))
	}
}

// AppendValue hardens d first when the lanes carry a code.
func (l *Lanes) AppendValue(d uint64) {
	if l.code != nil {
		l.Append(l.code.Encode(d))
	} else {
		l.Append(d)
	}
}

// Get returns the raw payload at index i.
func (l *Lanes) Get(i int) uint64 {
	w, sh := l.idx(i)
	return (l.words[w] >> sh) & l.lmask
}

// Value returns the decoded value at index i (softening hardened lanes
// without detection).
func (l *Lanes) Value(i int) uint64 {
	raw := l.Get(i)
	if l.code != nil {
		return l.code.Decode(raw)
	}
	return raw
}

// Set overwrites the raw payload at index i, clearing the delimiter bit
// (the full field is rewritten).
func (l *Lanes) Set(i int, raw uint64) {
	w, sh := l.idx(i)
	l.words[w] = l.words[w]&^(l.fmask<<sh) | (raw&l.lmask)<<sh
}

// Corrupt XORs a flip mask into the payload at index i. Flips are
// confined to the payload bits - the delimiter bit is layout metadata,
// not stored data, exactly like the unused high bits of a 16-bit slot
// holding a 13-bit code word in the byte-aligned representation; the
// fault injector masks flips to |C| bits on hardened columns, so both
// representations observe identical corrupted words.
func (l *Lanes) Corrupt(i int, flip uint64) {
	l.Set(i, l.Get(i)^(flip&l.lmask))
}

// hmaskBelow returns the delimiter bits of lanes [0, b).
func (l *Lanes) hmaskBelow(b int) uint64 {
	if b >= l.k {
		return l.hmask
	}
	return l.hmask & (1<<(uint(b)*l.field) - 1)
}

// ScanRangeRawInto appends i*posMul for every index i in [start, end)
// whose raw payload lies in the inclusive raw-domain range [lo, hi].
// On hardened lanes the caller passes encoded bounds (monotony
// transfers the comparison, Eq. 6) for late detection, or uses
// ScanRangeCheckedInto for continuous detection.
//
// The kernel structure is head/main/tail: the lanes of a partial first
// and last word run through a scalar shift-down loop, and the interior -
// full words only, so no per-word boundary masking - runs SWAR. In the
// delimiter layout, with H the match-bit mask, ((x|H) - lo*bcast)
// leaves lane j's top bit set iff lane j >= lo (the spare bit absorbs
// the borrow, so lanes never interfere), ((hi*bcast|H) - x) likewise
// for lane <= hi, and the AND of both against H is the per-lane match
// mask - K comparisons for three subtractions, regardless of K. The
// delimiter-free layout computes the per-lane difference
// d = (x - lo) mod 2^W with the high/low-split construction - subtract
// the low parts under a forced MSB, then patch each MSB with
// MSB(x)^MSB(lo)^borrow - and tests d <= hi-lo, the wide kernels'
// wraparound range trick, reading the comparison's borrow off a second
// forced-MSB subtraction. That test needs hi-lo's lane MSB clear, so a
// wider range scans its complement interval (which is then narrow) and
// flips the match mask.
//
// Match bits turn into positions the way rangeScanBlocked emits: every
// lane writes its position unconditionally and the cursor advances by
// the match bit, so emission costs no data-dependent branch at any
// selectivity. The 16-bit field - the shape AN codes for byte-wide SSB
// columns hit - gets a fully unrolled four-lane body with constant
// shifts. out must not alias l.words.
func (l *Lanes) ScanRangeRawInto(lo, hi uint64, start, end int, posMul uint64, out []uint64) []uint64 {
	if start < 0 {
		start = 0
	}
	if end > l.n {
		end = l.n
	}
	// Mirror the wide kernels' clamp semantics: both bounds saturate at
	// the payload maximum.
	if lo > l.lmask {
		lo = l.lmask
	}
	if hi > l.lmask {
		hi = l.lmask
	}
	if start >= end || lo > hi {
		return out
	}
	need := end - start
	if cap(out)-len(out) < need {
		grown := make([]uint64, len(out), len(out)+need)
		copy(grown, out)
		out = grown
	}
	// The blocked-emission window: writes land at buf[n] with n bounded
	// by the matches so far, which never exceeds need-1 at write time
	// (the last in-range lane is written before its increment).
	buf := out[len(out) : len(out)+need]
	n := 0
	k, f, lmask := l.k, l.field, l.lmask
	rng := hi - lo
	p := uint64(start) * posMul

	wFirst := (start + k - 1) / k
	wLast := end / k
	hEnd := wFirst * k
	if hEnd > end {
		hEnd = end
	}
	if start < hEnd {
		w := wFirst - 1
		x := l.words[w] >> (uint(start-w*k) * f)
		for i := start; i < hEnd; i++ {
			buf[n] = p
			inc := 0
			if x&lmask-lo <= rng {
				inc = 1
			}
			n += inc
			x >>= f
			p += posMul
		}
	}
	if wFirst < wLast {
		h, bc := l.hmask, l.bcast
		switch {
		case rng == lmask:
			// Full-domain range: every interior lane matches.
			for c := (wLast - wFirst) * k; c > 0; c-- {
				buf[n] = p
				n++
				p += posMul
			}
		case l.delim:
			loRep, hiRep := lo*bc, hi*bc|h
			for w := wFirst; w < wLast; w++ {
				x := l.words[w]
				m := ((x | h) - loRep) & (hiRep - x) & h
				sh := f - 1
				for j := 0; j < k; j++ {
					buf[n] = p
					n += int(m >> sh & 1)
					p += posMul
					sh += f
				}
			}
		default:
			// Delimiter-free: take the complement interval when hi-lo
			// has its lane MSB set, so d <= rng' always splits at a
			// clear MSB, and un-negate via the match-mask flip.
			loF, rngF, negMask := lo, rng, uint64(0)
			if rng&(1<<(l.bits-1)) != 0 {
				loF, rngF, negMask = (hi+1)&lmask, lmask-1-rng, h
			}
			loRep := loF * bc
			loLow, nLo := loRep&^h, ^loRep
			rngHigh := rngF*bc&^h | h
			if f == 16 {
				pm2, pm3, pm4 := 2*posMul, 3*posMul, 4*posMul
				for w := wFirst; w < wLast; w++ {
					x := l.words[w]
					xl := x &^ h
					t := (xl | h) - loLow
					d := t ^ ((x ^ nLo) & h)
					u := rngHigh - d&^h
					m := (^d & u & h) ^ negMask
					buf[n] = p
					n += int(m >> 15 & 1)
					buf[n] = p + posMul
					n += int(m >> 31 & 1)
					buf[n] = p + pm2
					n += int(m >> 47 & 1)
					buf[n] = p + pm3
					n += int(m >> 63)
					p += pm4
				}
			} else {
				for w := wFirst; w < wLast; w++ {
					x := l.words[w]
					xl := x &^ h
					t := (xl | h) - loLow
					d := t ^ ((x ^ nLo) & h)
					u := rngHigh - d&^h
					m := (^d & u & h) ^ negMask
					sh := f - 1
					for j := 0; j < k; j++ {
						buf[n] = p
						n += int(m >> sh & 1)
						p += posMul
						sh += f
					}
				}
			}
		}
	}
	tStart := wLast * k
	if tStart < hEnd {
		tStart = hEnd
	}
	if tStart < end {
		x := l.words[wLast] >> (uint(tStart-wLast*k) * f)
		for i := tStart; i < end; i++ {
			buf[n] = p
			inc := 0
			if x&lmask-lo <= rng {
				inc = 1
			}
			n += inc
			x >>= f
			p += posMul
		}
	}
	return out[:len(out)+n]
}

// ScanRangeCheckedInto is the continuous-detection scan (Algorithm 1)
// over the lanes: every touched lane in [start, end) is softened with
// the inverse and verified; indices of corrupted lanes are appended to
// errs (plain, no posMul) and indices whose decoded value lies in the
// plain-domain range [lo, hi] are appended to out as i*posMul. The
// per-lane multiplication cannot be done register-parallel, so this
// path is scalar over the packed lanes - one word load feeds K lanes by
// shifting down, and matches emit blocked like rangeScanChecked - it
// exists for representation parity (identical match sets and error
// order to the wide checked scan), not for SWAR speedups.
func (l *Lanes) ScanRangeCheckedInto(lo, hi uint64, start, end int, posMul uint64, out, errs []uint64) ([]uint64, []uint64) {
	code := l.code
	if code == nil || lo > hi || lo > code.MaxData() {
		return out, errs
	}
	if start < 0 {
		start = 0
	}
	if end > l.n {
		end = l.n
	}
	if start >= end {
		return out, errs
	}
	inv, mask, dmax := code.AInv(), code.CodeMask(), code.MaxData()
	if hi > dmax {
		hi = dmax
	}
	span := hi - lo
	need := end - start
	if cap(out)-len(out) < need {
		grown := make([]uint64, len(out), len(out)+need)
		copy(grown, out)
		out = grown
	}
	buf := out[len(out) : len(out)+need]
	n := 0
	f, k, fmask, lmask := l.field, l.k, l.fmask, l.lmask
	// A set delimiter bit cannot arise from the fault model (flips
	// confine to payload bits) but would silently decode wrong; treat it
	// as corruption like any invalid word. The delimiter-free layout has
	// no such bit (fmask == lmask), so the check vanishes there.
	checkDelim := fmask != lmask
	p := uint64(start) * posMul
	wFirst := (start + k - 1) / k
	wLast := end / k
	hEnd := wFirst * k
	if hEnd > end {
		hEnd = end
	}
	if start < hEnd {
		w := wFirst - 1
		x := l.words[w] >> (uint(start-w*k) * f)
		for i := start; i < hEnd; i++ {
			v := x & fmask
			x >>= f
			d := v * inv & mask
			if d > dmax || (checkDelim && v > lmask) {
				errs = append(errs, uint64(i))
			} else {
				buf[n] = p
				inc := 0
				if d-lo <= span {
					inc = 1
				}
				n += inc
			}
			p += posMul
		}
	}
	if wFirst < wLast {
		if f == 16 && dmax&(dmax+1) == 0 {
			// Four constant-shift lanes per word, validity of all four
			// folded into one test: with dmax all-ones (power-of-two
			// data domain), a softened lane is invalid iff it has bits
			// above dmax, so OR-ing the four candidates checks the
			// whole word at once and clean words never branch per lane.
			pm2, pm3, pm4 := 2*posMul, 3*posMul, 4*posMul
			for w := wFirst; w < wLast; w++ {
				x := l.words[w]
				d0 := x & 0xffff * inv & mask
				d1 := x >> 16 & 0xffff * inv & mask
				d2 := x >> 32 & 0xffff * inv & mask
				d3 := x >> 48 * inv & mask
				if (d0|d1|d2|d3)&^dmax != 0 {
					// Rare: at least one corrupted lane; redo the word
					// lane by lane to keep entry and emission order.
					for j, d := range [4]uint64{d0, d1, d2, d3} {
						if d > dmax {
							errs = append(errs, uint64(w*k+j))
						} else {
							buf[n] = p
							inc := 0
							if d-lo <= span {
								inc = 1
							}
							n += inc
						}
						p += posMul
					}
					continue
				}
				buf[n] = p
				inc := 0
				if d0-lo <= span {
					inc = 1
				}
				n += inc
				buf[n] = p + posMul
				inc = 0
				if d1-lo <= span {
					inc = 1
				}
				n += inc
				buf[n] = p + pm2
				inc = 0
				if d2-lo <= span {
					inc = 1
				}
				n += inc
				buf[n] = p + pm3
				inc = 0
				if d3-lo <= span {
					inc = 1
				}
				n += inc
				p += pm4
			}
		} else {
			for w := wFirst; w < wLast; w++ {
				x := l.words[w]
				for j := 0; j < k; j++ {
					v := x & fmask
					x >>= f
					d := v * inv & mask
					if d > dmax || (checkDelim && v > lmask) {
						errs = append(errs, uint64(w*k+j))
						p += posMul
						continue
					}
					buf[n] = p
					inc := 0
					if d-lo <= span {
						inc = 1
					}
					n += inc
					p += posMul
				}
			}
		}
	}
	tStart := wLast * k
	if tStart < hEnd {
		tStart = hEnd
	}
	if tStart < end {
		x := l.words[wLast] >> (uint(tStart-wLast*k) * f)
		for i := tStart; i < end; i++ {
			v := x & fmask
			x >>= f
			d := v * inv & mask
			if d > dmax || (checkDelim && v > lmask) {
				errs = append(errs, uint64(i))
			} else {
				buf[n] = p
				inc := 0
				if d-lo <= span {
					inc = 1
				}
				n += inc
			}
			p += posMul
		}
	}
	return out[:len(out)+n], errs
}
