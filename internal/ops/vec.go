package ops

import (
	"fmt"
	"strings"

	"ahead/internal/an"
)

// Flavor selects the kernel style of an operator, mirroring the paper's
// scalar vs. SSE4.2 operator variants. Blocked kernels use predicated
// (branch-free) emission and fixed-width unrolling, the Go stand-in for
// SIMD (see internal/an for the substitution rationale).
type Flavor int

const (
	// Scalar is the one-value-per-iteration flavor.
	Scalar Flavor = iota
	// Blocked is the batch flavor.
	Blocked
)

// String implements fmt.Stringer.
func (f Flavor) String() string {
	if f == Scalar {
		return "scalar"
	}
	return "blocked"
}

// ParseFlavor resolves a flavor label (case-insensitive); unknown labels
// are an error.
func ParseFlavor(s string) (Flavor, error) {
	switch strings.ToLower(s) {
	case "scalar":
		return Scalar, nil
	case "blocked":
		return Blocked, nil
	default:
		return Scalar, fmt.Errorf("ops: unknown flavor %q", s)
	}
}

// Sel is a selection vector: the materialized virtual IDs of qualifying
// rows. Under continuous detection the positions are stored hardened with
// PosCode (Section 5.2, "Handling of Intermediate Results"); unprotected
// plans store them plain.
type Sel struct {
	Pos      []uint64
	Hardened bool
}

// Len returns the number of selected positions.
func (s *Sel) Len() int { return len(s.Pos) }

// At returns the plain position at index i, checking the hardened form
// when applicable; corruptions are recorded against the "virtual-ids"
// pseudo column.
func (s *Sel) At(i int, log *ErrorLog) (uint64, bool) {
	p := s.Pos[i]
	if !s.Hardened {
		return p, true
	}
	pos, ok := PosCode.Check(p)
	if !ok {
		if log != nil {
			log.Record("virtual-ids", uint64(i))
		}
		return 0, false
	}
	return pos, true
}

// Plain returns the decoded positions, verifying hardened ones.
func (s *Sel) Plain(log *ErrorLog) []uint64 {
	if !s.Hardened {
		return s.Pos
	}
	out := make([]uint64, 0, len(s.Pos))
	for i := range s.Pos {
		if p, ok := s.At(i, log); ok {
			out = append(out, p)
		}
	}
	return out
}

// Vec is a materialized intermediate value vector (the tail of a BAT).
// When Code is non-nil the values are AN code words of that code;
// otherwise they are plain.
type Vec struct {
	Name string
	Vals []uint64
	Code *an.Code
}

// Len returns the number of values.
func (v *Vec) Len() int { return len(v.Vals) }

// ValueChecked returns the plain value at index i. Hardened vectors soften
// and verify; corrupted values are recorded in the log and reported !ok.
func (v *Vec) ValueChecked(i int, log *ErrorLog) (uint64, bool) {
	val := v.Vals[i]
	if v.Code == nil {
		return val, true
	}
	d, ok := v.Code.Check(val)
	if !ok {
		if log != nil {
			log.Record(VecLogName(v.Name), uint64(i))
		}
		return 0, false
	}
	return d, true
}

// Value returns the plain value at index i without corruption checks.
func (v *Vec) Value(i int) uint64 {
	if v.Code == nil {
		return v.Vals[i]
	}
	return v.Code.Decode(v.Vals[i])
}

// Soften decodes the whole vector into plain values. With detect set,
// every value is verified and corruptions recorded - this is the Δ
// (detect-and-decode) operator applied to an intermediate (Late detection,
// Section 5.1).
func (v *Vec) Soften(detect bool, log *ErrorLog) *Vec {
	if v.Code == nil {
		return v
	}
	out := &Vec{Name: v.Name, Vals: make([]uint64, len(v.Vals))}
	inv, mask := v.Code.AInv(), v.Code.CodeMask()
	max := v.Code.MaxData()
	for i, val := range v.Vals {
		d := val * inv & mask
		if detect && d > max {
			if log != nil {
				log.Record(VecLogName(v.Name), uint64(i))
			}
		}
		out.Vals[i] = d
	}
	return out
}

// Reencode re-hardens the vector from its current code to next (Eq. 10),
// the per-operator output adaptation of the Reencoding variant. A word
// its current code rejects becomes a word next rejects (an.Code.Poison):
// the multiply alone would erase a flip above next's code bits and hand
// on a valid word, where the fused kernels drop the row.
func (v *Vec) Reencode(next *an.Code) (*Vec, error) {
	if v.Code == nil {
		return nil, fmt.Errorf("ops: cannot reencode plain vector %q", v.Name)
	}
	factor, mask, err := v.Code.ReencodeFactor(next)
	if err != nil {
		return nil, err
	}
	out := &Vec{Name: v.Name, Vals: make([]uint64, len(v.Vals)), Code: next}
	mask &= next.CodeMask()
	inv, cmask, dmax := v.Code.AInv(), v.Code.CodeMask(), v.Code.MaxData()
	for i, val := range v.Vals {
		if d := val * inv & cmask; d > dmax {
			out.Vals[i] = next.Poison(d)
			continue
		}
		out.Vals[i] = val * factor & mask
	}
	return out, nil
}
