package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"ahead/internal/an"
)

// ColumnSnapshot is a lazy reader over one serialized column file: it
// parses and verifies the metadata up front, then serves individual
// chunks on demand by offset arithmetic - the header pins rows,
// chunkRows and width, so chunk i's position is implied and a repair
// path can pull one flipped chunk without streaming the rest of the
// column through memory.
type ColumnSnapshot struct {
	f    *os.File
	name string
	meta *colMeta
}

// OpenColumnSnapshot opens a column file written by WriteColumn and
// verifies its header, dictionary, and heap sections. Chunk payloads are
// not touched until ReadChunk.
func OpenColumnSnapshot(path, name string) (*ColumnSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	m, err := readColumnMeta(bufio.NewReader(f))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: snapshot %s: %w", path, err)
	}
	return &ColumnSnapshot{f: f, name: name, meta: m}, nil
}

// Close releases the underlying file.
func (s *ColumnSnapshot) Close() error { return s.f.Close() }

// Name returns the column name the snapshot was opened under.
func (s *ColumnSnapshot) Name() string { return s.name }

// Kind returns the column kind recorded in the header.
func (s *ColumnSnapshot) Kind() Kind { return s.meta.kind }

// Code returns the AN code recorded in the header, or nil for an
// unprotected column.
func (s *ColumnSnapshot) Code() *an.Code { return s.meta.code }

// Base returns the frame of reference recorded in the header (0 for a
// version 2 file).
func (s *ColumnSnapshot) Base() uint64 { return s.meta.base }

// Rows returns the row count recorded in the header.
func (s *ColumnSnapshot) Rows() int { return s.meta.rows }

// ChunkRows returns the chunk granularity the file was written with.
func (s *ColumnSnapshot) ChunkRows() int { return s.meta.chunkRows }

// Chunks returns the number of chunks in the file.
func (s *ColumnSnapshot) Chunks() int { return NumChunks(s.meta.rows, s.meta.chunkRows) }

// chunkSpan returns the offset and row count of chunk i. Every chunk
// before the last is full, so the offset is pure arithmetic.
func (s *ColumnSnapshot) chunkSpan(i int) (off int64, rowsIn int, err error) {
	if i < 0 || i >= s.Chunks() {
		return 0, 0, fmt.Errorf("storage: snapshot %q has no chunk %d", s.name, i)
	}
	full := int64(s.meta.chunkRows)*int64(s.meta.width) + 4
	off = s.meta.dataOff + int64(i)*full
	rowsIn = min(s.meta.rows-i*s.meta.chunkRows, s.meta.chunkRows)
	return off, rowsIn, nil
}

// ReadChunk reads chunk i, verifies it against its stored CRC, and
// returns the raw physical words (code words for hardened columns - the
// caller AN-verifies them on receipt, the same discipline as the
// anti-entropy wire).
func (s *ColumnSnapshot) ReadChunk(i int) ([]uint64, error) {
	off, rowsIn, err := s.chunkSpan(i)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, rowsIn*s.meta.width+4)
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("storage: snapshot %q chunk %d: %w", s.name, i, err)
	}
	payload, stored := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(payload) != stored {
		return nil, fmt.Errorf("storage: snapshot %q chunk %d failed its CRC", s.name, i)
	}
	words := make([]uint64, rowsIn)
	for j := range words {
		switch s.meta.width {
		case 1:
			words[j] = uint64(payload[j])
		case 2:
			words[j] = uint64(binary.LittleEndian.Uint16(payload[j*2:]))
		case 4:
			words[j] = uint64(binary.LittleEndian.Uint32(payload[j*4:]))
		default:
			words[j] = binary.LittleEndian.Uint64(payload[j*8:])
		}
	}
	return words, nil
}

// ReadRows reads rows [start, start+n), CRC-verifying every chunk it
// touches. Repair sources use it to serve requests at a chunk
// granularity different from the file's own.
func (s *ColumnSnapshot) ReadRows(start, n int) ([]uint64, error) {
	if start < 0 || n < 0 || start+n > s.meta.rows {
		return nil, fmt.Errorf("storage: snapshot %q rows [%d, %d) out of range (%d rows)", s.name, start, start+n, s.meta.rows)
	}
	out := make([]uint64, 0, n)
	for got := 0; got < n; {
		pos := start + got
		chunk := pos / s.meta.chunkRows
		words, err := s.ReadChunk(chunk)
		if err != nil {
			return nil, err
		}
		lo := pos - chunk*s.meta.chunkRows
		hi := min(len(words), lo+(n-got))
		out = append(out, words[lo:hi]...)
		got += hi - lo
	}
	return out, nil
}

// VerifiedValues is how a redundant copy answers a repair: it verifies
// the code words of rows [start, start+len(words)) whole under code
// (DecodeWords) and returns the values at positions, in the frame of
// reference base. A nil code passes the words through as plain values.
func VerifiedValues(code *an.Code, base uint64, words []uint64, start int, positions []uint64) ([]uint64, error) {
	if code != nil {
		var err error
		if words, err = DecodeWords(code, base, words); err != nil {
			return nil, err
		}
	}
	vals := make([]uint64, len(positions))
	for i, pos := range positions {
		off := int(pos) - start
		if off < 0 || off >= len(words) {
			return nil, fmt.Errorf("storage: position %d outside the %d rows served from row %d", pos, len(words), start)
		}
		vals[i] = words[off]
	}
	return vals, nil
}

// DecodeWords verifies code words whole under code - one invalid word
// refuses them all (an.Code.DecodeAll) - and returns the values they
// hold in the frame of reference base.
func DecodeWords(code *an.Code, base uint64, words []uint64) ([]uint64, error) {
	vals, err := code.DecodeAll(words)
	if err != nil {
		return nil, err
	}
	for i := range vals {
		vals[i] += base
	}
	return vals, nil
}

// StoredCRCs returns the per-chunk CRCs recorded in the file, without
// reading payloads - the digest list a replica publishes for
// anti-entropy comparison. The CRCs are trusted only for routing: a
// fetched chunk is still CRC- and AN-verified on receipt.
func (s *ColumnSnapshot) StoredCRCs() ([]uint32, error) {
	crcs := make([]uint32, s.Chunks())
	var b [4]byte
	for i := range crcs {
		off, rowsIn, err := s.chunkSpan(i)
		if err != nil {
			return nil, err
		}
		if _, err := s.f.ReadAt(b[:], off+int64(rowsIn*s.meta.width)); err != nil {
			return nil, fmt.Errorf("storage: snapshot %q chunk %d CRC: %w", s.name, i, err)
		}
		crcs[i] = binary.LittleEndian.Uint32(b[:])
	}
	return crcs, nil
}
