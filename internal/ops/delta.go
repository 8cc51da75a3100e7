package ops

import (
	"fmt"

	"ahead/internal/an"
	"ahead/internal/storage"
)

// Delta is the Δ detect-and-decode operator of Section 5.1: one pass
// that verifies a whole hardened base column and softens it into an
// unprotected column. Early-onetime detection runs it over every touched
// base column before any other operator; corrupted positions land in the
// log in ascending order and decode to whatever the corrupted word
// softens to (recovery is the DBMS's job). The kernel follows o.Flavor
// and, under o.Par, runs per morsel.
//
// The softened values live in a buffer borrowed from the scratch arena:
// the returned column is valid until release is called, which the caller
// must do exactly once when no operator reads the column any more. A
// residue-hardened column is already plain, so its Δ is the sidecar
// verification alone and the column itself comes back.
func Delta(col *storage.Column, o *Opts) (plain *storage.Column, release func(), err error) {
	if err := o.ctxErr(); err != nil {
		return nil, nil, err
	}
	switch {
	case col.IsResidueHardened():
		if err := deltaScan(col, nil, o); err != nil {
			return nil, nil, err
		}
		return col, func() {}, nil
	case col.Code() == nil:
		return nil, nil, fmt.Errorf("ops: Δ needs a hardened column, got %q", col.Name())
	}
	switch col.SoftenedWidth() {
	case 1:
		return deltaInto(u8Classes, col, o)
	case 2:
		return deltaInto(u16Classes, col, o)
	case 4:
		return deltaInto(u32Classes, col, o)
	default:
		return deltaInto(u64Classes, col, o)
	}
}

// deltaInto borrows the softened column's storage from the width class
// cs and fills it.
func deltaInto[T an.Unsigned](cs []*scratchClass[T], col *storage.Column, o *Opts) (*storage.Column, func(), error) {
	buf := borrow(cs, col.Len())
	*buf = (*buf)[:col.Len()]
	plain, err := storage.SoftenedOver(col, *buf)
	if err == nil {
		err = deltaScan(col, plain, o)
	}
	if err != nil {
		release(cs, buf)
		return nil, nil, err
	}
	return plain, func() { release(cs, buf) }, nil
}

// deltaScan verifies every value of col, decoding into dst unless col is
// residue-hardened. Morsels record global positions into private logs
// that runMorsels merges in morsel order, so the log is the same entry
// for entry whatever runner tiles the scan.
func deltaScan(col, dst *storage.Column, o *Opts) error {
	blocked := o.flavor() == Blocked
	scan := func(log *ErrorLog, start, end int) (struct{}, error) {
		var bad []uint64
		if dst == nil {
			bad = col.ResidueCheckRange(start, end)
		} else {
			bad = col.CheckDecodeInto(dst, start, end, blocked)
		}
		if log != nil {
			for _, pos := range bad {
				log.Record(col.Name(), pos)
			}
		}
		return struct{}{}, nil
	}
	_, err := runMorsels(o.par(col.Len()), col.Len(), o, o.log(), nil, scan)
	return err
}
