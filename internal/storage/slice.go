package storage

import "fmt"

// Slice returns a new table holding the given rows of t, in the given
// order. Columns keep their name, kind, physical width, code, frame of
// reference, dictionary and string heap (dictionaries and heaps are
// immutable and shared, exactly as Replicate shares them), so a slice of
// a table is schema-compatible with the original - the property the
// cluster layer relies on when every shard loads the same generated data
// and keeps only its hash-assigned rows.
func (t *Table) Slice(rows []int) (*Table, error) {
	n := t.Rows()
	for _, r := range rows {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("storage: slice row %d beyond table %q (%d rows)", r, t.name, n)
		}
	}
	out := NewTable(t.name)
	for _, c := range t.Columns() {
		nc := &Column{name: c.name, kind: c.kind, width: c.width, code: c.code, base: c.base, lifted: c.lifted, dict: c.dict, heap: c.heap}
		nc.grow(len(rows))
		c.bulk(nc, bulkOp{kind: bulkGather, rows: rows})
		nc.initPacked()
		if err := out.AddColumn(nc); err != nil {
			return nil, err
		}
	}
	return out, nil
}
