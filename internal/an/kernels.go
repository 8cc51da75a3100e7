package an

// Batch kernels over slices of code words.
//
// The paper's prototype has scalar and SSE4.2/AVX2 implementations of every
// coding primitive. Go exposes no SIMD intrinsics, so the "vectorized"
// flavor here is a blocked kernel: a fixed-width inner loop the compiler
// can keep in registers, processing Block values per iteration with the
// loop-carried work (error accumulation) reduced to one branch per block.
// The relative behaviour the paper reports - hardening adds one multiply
// and detection one compare per value, which batch execution amortizes -
// is preserved; absolute speedups naturally differ from SSE hardware.

// Unsigned constrains the physical integer widths a column can use.
type Unsigned interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Block is the number of values a blocked kernel processes per iteration.
const Block = 8

// EncodeSlice hardens src into dst, which must be at least as long as src.
// S is the unprotected storage width, D the hardened storage width.
func EncodeSlice[S, D Unsigned](c *Code, src []S, dst []D) {
	a := D(c.a)
	for i, v := range src {
		dst[i] = D(v) * a
	}
}

// DecodeSlice softens src into dst without detection.
func DecodeSlice[S, D Unsigned](c *Code, src []S, dst []D) {
	inv := S(c.aInv)
	mask := S(c.codeMask)
	for i, v := range src {
		dst[i] = D(v * inv & mask)
	}
}

// CheckSlice verifies every code word in src with the improved
// inverse-based test and appends the positions of corrupted words to errs.
// It returns the extended error-position slice. Positions are raw (the
// caller hardens them before storing, Section 5.2).
func CheckSlice[S Unsigned](c *Code, src []S, errs []uint64) []uint64 {
	inv := S(c.aInv)
	mask := S(c.codeMask)
	max := S(c.dMaxU)
	for i, v := range src {
		if v*inv&mask > max {
			errs = append(errs, uint64(i))
		}
	}
	return errs
}

// CheckDecodeSlice fuses detection and softening: dst receives the decoded
// values and the returned slice carries the positions of corrupted words.
// This is the Δ (detect-and-decode) primitive over a whole column.
func CheckDecodeSlice[S, D Unsigned](c *Code, src []S, dst []D, errs []uint64) []uint64 {
	inv := S(c.aInv)
	mask := S(c.codeMask)
	max := S(c.dMaxU)
	for i, v := range src {
		d := v * inv & mask
		if d > max {
			errs = append(errs, uint64(i))
		}
		dst[i] = D(d)
	}
	return errs
}

// EncodeSliceBlocked is the blocked flavor of EncodeSlice.
func EncodeSliceBlocked[S, D Unsigned](c *Code, src []S, dst []D) {
	a := D(c.a)
	n := len(src) &^ (Block - 1)
	for i := 0; i < n; i += Block {
		s := src[i : i+Block : i+Block]
		d := dst[i : i+Block : i+Block]
		d[0] = D(s[0]) * a
		d[1] = D(s[1]) * a
		d[2] = D(s[2]) * a
		d[3] = D(s[3]) * a
		d[4] = D(s[4]) * a
		d[5] = D(s[5]) * a
		d[6] = D(s[6]) * a
		d[7] = D(s[7]) * a
	}
	for i := n; i < len(src); i++ {
		dst[i] = D(src[i]) * a
	}
}

// DecodeSliceBlocked is the blocked flavor of DecodeSlice.
func DecodeSliceBlocked[S, D Unsigned](c *Code, src []S, dst []D) {
	inv := S(c.aInv)
	mask := S(c.codeMask)
	n := len(src) &^ (Block - 1)
	for i := 0; i < n; i += Block {
		s := src[i : i+Block : i+Block]
		d := dst[i : i+Block : i+Block]
		d[0] = D(s[0] * inv & mask)
		d[1] = D(s[1] * inv & mask)
		d[2] = D(s[2] * inv & mask)
		d[3] = D(s[3] * inv & mask)
		d[4] = D(s[4] * inv & mask)
		d[5] = D(s[5] * inv & mask)
		d[6] = D(s[6] * inv & mask)
		d[7] = D(s[7] * inv & mask)
	}
	for i := n; i < len(src); i++ {
		dst[i] = D(src[i] * inv & mask)
	}
}

// CheckSliceBlocked is the blocked flavor of CheckSlice: each block is
// scanned branch-free into a corruption summary; only blocks that contain
// at least one corrupted word re-scan to record exact positions, mirroring
// the movemask-then-resolve pattern of the SIMD prototype.
func CheckSliceBlocked[S Unsigned](c *Code, src []S, errs []uint64) []uint64 {
	inv := S(c.aInv)
	mask := S(c.codeMask)
	max := S(c.dMaxU)
	n := len(src) &^ (Block - 1)
	for i := 0; i < n; i += Block {
		s := src[i : i+Block : i+Block]
		var bad S
		bad |= (s[0] * inv & mask) &^ max
		bad |= (s[1] * inv & mask) &^ max
		bad |= (s[2] * inv & mask) &^ max
		bad |= (s[3] * inv & mask) &^ max
		bad |= (s[4] * inv & mask) &^ max
		bad |= (s[5] * inv & mask) &^ max
		bad |= (s[6] * inv & mask) &^ max
		bad |= (s[7] * inv & mask) &^ max
		if bad != 0 {
			for j, v := range s {
				if v*inv&mask > max {
					errs = append(errs, uint64(i+j))
				}
			}
		}
	}
	for i := n; i < len(src); i++ {
		if src[i]*inv&mask > max {
			errs = append(errs, uint64(i))
		}
	}
	return errs
}

// CheckDecodeSliceBlocked is the blocked flavor of CheckDecodeSlice: every
// block is decoded and stored branch-free while the out-of-domain bits
// accumulate into a summary; only a block whose summary is non-zero
// re-scans to resolve positions, so the clean path costs one multiply,
// one mask and one store per word.
func CheckDecodeSliceBlocked[S, D Unsigned](c *Code, src []S, dst []D, errs []uint64) []uint64 {
	inv := S(c.aInv)
	mask := S(c.codeMask)
	max := S(c.dMaxU)
	n := len(src) &^ (Block - 1)
	for i := 0; i < n; i += Block {
		s := src[i : i+Block : i+Block]
		d := dst[i : i+Block : i+Block]
		d0, d1, d2, d3 := s[0]*inv&mask, s[1]*inv&mask, s[2]*inv&mask, s[3]*inv&mask
		d4, d5, d6, d7 := s[4]*inv&mask, s[5]*inv&mask, s[6]*inv&mask, s[7]*inv&mask
		d[0], d[1], d[2], d[3] = D(d0), D(d1), D(d2), D(d3)
		d[4], d[5], d[6], d[7] = D(d4), D(d5), D(d6), D(d7)
		if (d0|d1|d2|d3|d4|d5|d6|d7)&^max != 0 {
			for j, v := range s {
				if v*inv&mask > max {
					errs = append(errs, uint64(i+j))
				}
			}
		}
	}
	for i := n; i < len(src); i++ {
		v := src[i] * inv & mask
		if v > max {
			errs = append(errs, uint64(i))
		}
		dst[i] = D(v)
	}
	return errs
}

// ReencodeSlice re-hardens a whole column from code c1 to code c2 with one
// multiplication per value (Eq. 10). S must be wide enough for the wider of
// the two codes.
func ReencodeSlice[S Unsigned](c1, c2 *Code, data []S) error {
	factor, _, err := c1.ReencodeFactor(c2)
	if err != nil {
		return err
	}
	f := S(factor)
	mask := S(c2.codeMask)
	for i, v := range data {
		data[i] = v * f & mask
	}
	return nil
}
