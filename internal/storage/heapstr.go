package storage

import "fmt"

// StringHeap is the paper's string storage (Section 6.1): "for strings,
// we use a separate data heap and the data column contains pointers to
// the actual string values". Values are appended to one byte buffer; the
// column stores a packed reference per row.
//
// A reference packs offset and length into 48 bits (offset<<8 | len,
// strings up to 255 bytes, heaps up to 2^40 bytes), so hardening the
// pointer column with a resbig code keeps it at the same 8-byte physical
// width - pointers are protected for free, while the heap bytes
// themselves stay unhardened exactly as in the prototype (string-data
// hardening is the paper's future work).
type StringHeap struct {
	buf []byte
}

// refBits is the data width of a packed heap reference.
const refBits = 48

// Add appends s and returns its packed reference.
func (h *StringHeap) Add(s string) (uint64, error) {
	if len(s) > 255 {
		return 0, fmt.Errorf("storage: heap string of %d bytes exceeds 255", len(s))
	}
	off := uint64(len(h.buf))
	if off >= 1<<40 {
		return 0, fmt.Errorf("storage: string heap full")
	}
	h.buf = append(h.buf, s...)
	return off<<8 | uint64(len(s)), nil
}

// Get resolves a packed reference.
func (h *StringHeap) Get(ref uint64) (string, error) {
	off := ref >> 8
	n := ref & 0xFF
	if off+n > uint64(len(h.buf)) {
		return "", fmt.Errorf("storage: heap reference %d out of range", ref)
	}
	return string(h.buf[off : off+n]), nil
}

// Bytes returns the heap size.
func (h *StringHeap) Bytes() int { return len(h.buf) }

// NewHeapStrColumn stores the values in a fresh string heap and returns
// the pointer column referencing it.
func NewHeapStrColumn(name string, values []string) (*Column, error) {
	total := 0
	for _, v := range values {
		total += len(v)
	}
	heap := &StringHeap{buf: make([]byte, 0, total)}
	c := &Column{name: name, kind: StrHeap, width: 8, heap: heap, u64: make([]uint64, 0, len(values))}
	for _, v := range values {
		ref, err := heap.Add(v)
		if err != nil {
			return nil, err
		}
		c.u64 = append(c.u64, ref)
	}
	return c, nil
}
