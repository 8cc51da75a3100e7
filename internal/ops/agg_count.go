package ops

import (
	"fmt"

	"ahead/internal/an"
)

// CountGrouped counts rows per group. When harden is non-nil the counts
// are emitted as code words of that code, following the paper's rule that
// newly created intermediates are hardened at generation time.
func CountGrouped(gids []uint32, numGroups int, harden *an.Code) (*Vec, error) {
	out := &Vec{Name: "count", Vals: make([]uint64, numGroups), Code: harden}
	inc := uint64(1)
	if harden != nil {
		inc = harden.Encode(1)
	}
	for _, g := range gids {
		if g == ^uint32(0) {
			continue
		}
		if int(g) >= numGroups {
			return nil, fmt.Errorf("ops: group id %d out of range %d", g, numGroups)
		}
		out.Vals[g] += inc // Σ 1·A = count·A (Eq. 5)
	}
	return out, nil
}
