// Package an implements AN coding, the arithmetic error-detection code at
// the heart of AHEAD (Kolditz et al., SIGMOD 2018).
//
// An AN code hardens a |D|-bit data word d by multiplying it with a constant
// A: the code word is c = d*A. Valid code words are exactly the multiples of
// A that decode back into the data domain; every other bit pattern is the
// result of corruption. Because multiplication distributes over addition and
// preserves order, queries can run directly on hardened values (Eq. 5-8 of
// the paper), and a bit flip anywhere - in memory, on an interconnect, or
// inside an ALU operation - leaves a detectable non-multiple behind.
//
// Decoding and detection use the multiplicative inverse of A in the
// residue-class ring mod 2^|C| (Section 4.3 of the paper): d* = c * A^-1
// mod 2^|C|, and c is valid iff d* lies inside the data domain
// [dMin, dMax]. This replaces the expensive division/modulo of the naive
// formulation with one multiplication and one or two comparisons.
package an

import (
	"fmt"
	"math/bits"
)

// MaxCodeBits is the widest code word this implementation supports. Code
// words are manipulated in uint64 registers, mirroring the paper's prototype
// which maps every hardened type onto a native integer width.
const MaxCodeBits = 64

// Code is an AN code parameterized by the constant A and the width of the
// data domain. A Code is immutable and safe for concurrent use.
type Code struct {
	a        uint64 // the constant A (odd, > 1)
	aInv     uint64 // A^-1 mod 2^codeBits
	dataBits uint   // |D|: width of the data domain in bits
	aBits    uint   // |A| = ceil(log2(A)): extra bits the hardening adds
	codeBits uint   // |C| = |D| + |A|
	codeMask uint64 // 2^|C| - 1 (all ones for |C| == 64)
	dMaxU    uint64 // largest encodable unsigned data word: 2^|D| - 1
	dMaxS    int64  // largest encodable signed data word: 2^(|D|-1) - 1
	dMinS    int64  // smallest encodable signed data word: -2^(|D|-1)
}

// New constructs the AN code with constant a over data words of width
// dataBits. a must be odd (only odd numbers are coprime to 2^n and therefore
// invertible in the ring, Section 4.3) and greater than one, and the
// resulting code width |D| + ceil(log2(a)) must not exceed MaxCodeBits.
func New(a uint64, dataBits uint) (*Code, error) {
	if a < 3 {
		return nil, fmt.Errorf("an: A must be > 1, got %d", a)
	}
	if a%2 == 0 {
		return nil, fmt.Errorf("an: A must be odd to be invertible mod 2^n, got %d", a)
	}
	if dataBits == 0 {
		return nil, fmt.Errorf("an: data width must be positive")
	}
	aBits := uint(bits.Len64(a))
	codeBits := dataBits + aBits
	if codeBits > MaxCodeBits {
		return nil, fmt.Errorf("an: |D|=%d plus |A|=%d exceeds %d-bit code words", dataBits, aBits, MaxCodeBits)
	}
	c := &Code{
		a:        a,
		aInv:     InverseMod2N(a, codeBits),
		dataBits: dataBits,
		aBits:    aBits,
		codeBits: codeBits,
		codeMask: maskFor(codeBits),
		dMaxU:    maskFor(dataBits),
	}
	c.dMaxS = int64(maskFor(dataBits - 1)) // 2^(|D|-1) - 1; for |D|=1 this is 0
	c.dMinS = -c.dMaxS - 1
	return c, nil
}

// MustNew is New but panics on error. It is intended for statically known
// parameters such as the super-A tables.
func MustNew(a uint64, dataBits uint) *Code {
	c, err := New(a, dataBits)
	if err != nil {
		panic(err)
	}
	return c
}

func maskFor(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// A returns the code's constant.
func (c *Code) A() uint64 { return c.a }

// AInv returns the multiplicative inverse of A mod 2^|C|.
func (c *Code) AInv() uint64 { return c.aInv }

// DataBits returns |D|, the width of the data domain.
func (c *Code) DataBits() uint { return c.dataBits }

// ABits returns |A|, the number of bits added by the hardening.
func (c *Code) ABits() uint { return c.aBits }

// CodeBits returns |C| = |D| + |A|, the width of the code domain.
func (c *Code) CodeBits() uint { return c.codeBits }

// CodeMask returns the bit mask with the |C| least significant bits set.
func (c *Code) CodeMask() uint64 { return c.codeMask }

// MaxData returns the largest encodable unsigned data word.
func (c *Code) MaxData() uint64 { return c.dMaxU }

// MinSigned and MaxSigned bound the signed data domain.
func (c *Code) MinSigned() int64 { return c.dMinS }

// MaxSigned returns the largest encodable signed data word.
func (c *Code) MaxSigned() int64 { return c.dMaxS }

// String implements fmt.Stringer, e.g. "AN(A=29,|D|=8,|C|=13)".
func (c *Code) String() string {
	return fmt.Sprintf("AN(A=%d,|D|=%d,|C|=%d)", c.a, c.dataBits, c.codeBits)
}

// Encode hardens the unsigned data word d. d must lie in [0, MaxData];
// larger values are masked into the data domain first so that the result is
// always a valid code word.
func (c *Code) Encode(d uint64) uint64 {
	return ((d & c.dMaxU) * c.a) & c.codeMask
}

// Decode softens the code word cw back into its data word without checking
// for corruption. The result is meaningful only for valid code words; use
// Check to detect corruption while decoding.
func (c *Code) Decode(cw uint64) uint64 {
	return (cw * c.aInv) & c.codeMask
}

// IsValid reports whether cw is an uncorrupted code word, using the
// improved inverse-based test of Section 4.3: the decoded value of a valid
// code word must not exceed the largest encodable data word.
func (c *Code) IsValid(cw uint64) bool {
	return (cw*c.aInv)&c.codeMask <= c.dMaxU
}

// Check decodes cw and reports whether it was a valid code word. It is the
// fused detect-and-decode primitive used by the Δ operator and by
// continuous detection inside physical operators.
func (c *Code) Check(cw uint64) (d uint64, ok bool) {
	d = (cw * c.aInv) & c.codeMask
	return d, d <= c.dMaxU
}

// DecodeAll checks every code word of words and returns the decoded
// values, all or nothing: one invalid word refuses the whole run, so a
// caller never mixes verified and unverified values. This is how a
// redundant copy's chunk is verified on receipt before it repairs
// anything.
func (c *Code) DecodeAll(words []uint64) ([]uint64, error) {
	vals := make([]uint64, len(words))
	for i, cw := range words {
		d, ok := c.Check(cw)
		if !ok {
			return nil, fmt.Errorf("an: invalid code word at offset %d under %v", i, c)
		}
		vals[i] = d
	}
	return vals, nil
}

// IsValidNaive is the textbook detection test of Eq. (3): cw must be
// divisible by A. It is strictly weaker than IsValid (a corrupted word can
// still be a multiple of A yet decode outside the data domain) and an order
// of magnitude slower; it exists as the baseline for the Section 7 micro
// benchmarks and for cross-validation in tests.
func (c *Code) IsValidNaive(cw uint64) bool {
	return cw&c.codeMask == cw && cw%c.a == 0
}

// DecodeNaive softens cw with the textbook integer division of Eq. (2).
func (c *Code) DecodeNaive(cw uint64) uint64 {
	return cw / c.a
}

// EncodeSigned hardens the signed data word d, which must lie within
// [MinSigned, MaxSigned]. Two's-complement multiplication in the ring mod
// 2^|C| keeps negative values decodable (Section 4.3's signed example).
func (c *Code) EncodeSigned(d int64) uint64 {
	return (uint64(d) * c.a) & c.codeMask
}

// DecodeSigned softens cw into a signed data word, sign-extending from the
// code width. Like Decode it does not detect corruption.
func (c *Code) DecodeSigned(cw uint64) int64 {
	u := (cw * c.aInv) & c.codeMask
	return signExtend(u, c.codeBits)
}

// CheckSigned decodes cw as a signed value and reports validity. For signed
// integers both domain bounds must be tested (Eq. 12 and Eq. 13): after
// multiplication with the inverse, the |A| most significant bits of a valid
// word replicate the sign bit, so any detectable flip pushes the decoded
// value outside [MinSigned, MaxSigned].
func (c *Code) CheckSigned(cw uint64) (d int64, ok bool) {
	d = signExtend((cw*c.aInv)&c.codeMask, c.codeBits)
	return d, d >= c.dMinS && d <= c.dMaxS
}

// IsValidSigned reports whether cw is an uncorrupted signed code word.
func (c *Code) IsValidSigned(cw uint64) bool {
	d := signExtend((cw*c.aInv)&c.codeMask, c.codeBits)
	return d >= c.dMinS && d <= c.dMaxS
}

func signExtend(u uint64, width uint) int64 {
	shift := 64 - width
	return int64(u<<shift) >> shift
}

// ReencodeFactor returns the constant A* = A^-1 * A2 that re-hardens code
// words of this code into code words of next in a single multiplication
// (Eq. 10). Both codes must share the data width; the factor is taken in
// the ring of the wider code so the product never loses information.
func (c *Code) ReencodeFactor(next *Code) (factor uint64, mask uint64, err error) {
	if c.dataBits != next.dataBits {
		return 0, 0, fmt.Errorf("an: reencode across data widths (%d -> %d)", c.dataBits, next.dataBits)
	}
	width := c.codeBits
	if next.codeBits > width {
		width = next.codeBits
	}
	m := maskFor(width)
	inv := InverseMod2N(c.a, width)
	return (inv * next.a) & m, m, nil
}

// Reencode re-hardens the valid code word cw of this code into the
// equivalent code word of next. It does not detect corruption; pair it with
// Check when continuous detection is required.
func (c *Code) Reencode(cw uint64, next *Code) uint64 {
	factor, mask, err := c.ReencodeFactor(next)
	if err != nil {
		panic(err)
	}
	return (cw * factor) & mask & next.codeMask
}

// Poison returns a code word c rejects, carrying the low bits of the
// softened value d of a corrupted word above c's data domain: how a word
// that failed its own code's check moves into c without becoming valid.
func (c *Code) Poison(d uint64) uint64 {
	return (c.dMaxU + 1 | d&c.dMaxU) * c.a & c.codeMask
}
