package ops

import (
	"fmt"

	"ahead/internal/storage"
)

// Gather materializes the column values at the selected positions into a
// Vec (the fetch/project primitive). Hardened columns stay hardened: the
// Vec carries the code words and the column's code, so downstream
// operators keep computing on protected data. Words stored from a frame
// of reference are handed on as base-0 words under the column's lifted
// code (storage.Column.Lift), so no Vec carries a base. With Detect set,
// every fetched value is verified (continuous detection). A hardened
// word is handed on masked to its code bits (an.Code.CodeMask): bits
// above |C| of a 64-bit word are no part of the code word, so no check
// sees a flip there, and no sum may either.
func Gather(col *storage.Column, sel *Sel, o *Opts) (*Vec, error) {
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	parts, err := runMorsels(o.par(sel.Len()), sel.Len(), o, o.log(), dropU64, func(log *ErrorLog, start, end int) (*[]uint64, error) {
		return gatherRange(col, sel, o, log, start, end)
	})
	if err != nil {
		return nil, err
	}
	return &Vec{Name: col.Name(), Vals: o.outU64(parts...), Code: col.LiftedCode()}, nil
}

// gatherRange is the morsel kernel of Gather: it fetches the selection
// entries with global indices [start, end) into a borrowed scratch
// buffer whose ownership transfers to the caller.
func gatherRange(col *storage.Column, sel *Sel, o *Opts, log *ErrorLog, start, end int) (*[]uint64, error) {
	buf := borrowU64(end - start)
	out := (*buf)[:0]
	detect := o.detect()
	code := col.Code()
	mask := ^uint64(0)
	if code != nil {
		mask = code.CodeMask()
	}
	lift := col.Base() != 0
	for i := start; i < end; i++ {
		pos, ok := sel.At(i, log)
		if !ok {
			// A corrupted virtual ID loses the row; keep vector
			// positions aligned by emitting a zero value.
			out = append(out, 0)
			continue
		}
		if pos >= uint64(col.Len()) {
			releaseU64(buf)
			return nil, fmt.Errorf("ops: position %d beyond column %q (%d rows)", pos, col.Name(), col.Len())
		}
		v := col.Get(int(pos))
		if code != nil && detect {
			if _, ok := code.Check(v); !ok && log != nil {
				log.Record(col.Name(), pos)
			}
		}
		v &= mask
		if lift {
			v = col.Lift(v)
		}
		out = append(out, v)
	}
	*buf = out
	return buf, nil
}

// GatherAt fetches column values at plain positions (e.g. the build-side
// rows matched by a join probe).
func GatherAt(col *storage.Column, positions []uint32, o *Opts) (*Vec, error) {
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	parts, err := runMorsels(o.par(len(positions)), len(positions), o, o.log(), dropU64, func(log *ErrorLog, start, end int) (*[]uint64, error) {
		return gatherAtRange(col, positions, o, log, start, end)
	})
	if err != nil {
		return nil, err
	}
	return &Vec{Name: col.Name(), Vals: o.outU64(parts...), Code: col.LiftedCode()}, nil
}

// gatherAtRange is the morsel kernel of GatherAt.
func gatherAtRange(col *storage.Column, positions []uint32, o *Opts, log *ErrorLog, start, end int) (*[]uint64, error) {
	buf := borrowU64(end - start)
	out := (*buf)[:0]
	detect := o.detect()
	code := col.Code()
	mask := ^uint64(0)
	if code != nil {
		mask = code.CodeMask()
	}
	lift := col.Base() != 0
	for _, p := range positions[start:end] {
		if int(p) >= col.Len() {
			releaseU64(buf)
			return nil, fmt.Errorf("ops: position %d beyond column %q (%d rows)", p, col.Name(), col.Len())
		}
		v := col.Get(int(p))
		if code != nil && detect {
			if _, ok := code.Check(v); !ok && log != nil {
				log.Record(col.Name(), uint64(p))
			}
		}
		v &= mask
		if lift {
			v = col.Lift(v)
		}
		out = append(out, v)
	}
	*buf = out
	return buf, nil
}
