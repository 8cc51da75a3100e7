package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"ahead/internal/an"
)

// Column persistence, version 3: a chunked, self-describing snapshot
// format. AHEAD's end-to-end story extends naturally to data at rest: a
// hardened column is written as its code words, so corruption picked up
// on disk, on the wire, or in the buffer pool is detected by the same AN
// machinery the query operators use - no separate checksum needed for
// the values themselves (compare the related-work HDFS discussion, where
// block checksums protect only the disk hop and leave in-memory data
// vulnerable).
//
// What the code words cannot see is structure: a flipped row count, a
// flipped dictionary byte, a flipped code parameter. Version 1 covered
// those with a single trailing XOR fold over the whole file, which meant
// one flipped byte condemned the entire column and nothing could be
// read lazily. Version 2 frames every section with its own CRC instead,
// and version 3 adds the frame of reference of a hardened column
// (Column.Base) to the header:
//
//	magic "AHEADCO3"
//	header: ULEB128 kind | width | codeA | codeBits | base | rows | chunkRows
//	headerCRC u32le   (over magic + header bytes)
//	dict?: ULEB128 count, then per entry ULEB128 len + bytes
//	dictCRC u32le     (Str columns; over the dict section bytes)
//	heap?: ULEB128 size + bytes
//	heapCRC u32le     (StrHeap columns; over the heap section bytes)
//	chunk 0 payload | chunkCRC u32le
//	chunk 1 payload | chunkCRC u32le
//	...
//
// Each chunk holds up to chunkRows values at the column's physical
// width, little-endian; the last chunk may be short. Chunk sizes are
// implied by the (CRC-protected) header, so a reader can seek straight
// to chunk i without touching the rest of the file - the basis of the
// lazy ColumnSnapshot reader and of the per-chunk digests the replica
// anti-entropy protocol exchanges.
//
// Load semantics keep the v1 contract: a CRC mismatch on the header,
// dictionary, or heap is an error (metadata has no repair story); a
// chunk CRC mismatch on an unprotected column is an error; a chunk CRC
// mismatch on a hardened column is an error only when no code word in
// that chunk accounts for it (that covers a flipped CRC byte itself) -
// value-granular AN detections are reported as repairable positions,
// and only the affected chunk's worth of trust is in question.
//
// A version 2 file (magic "AHEADCO2", no base field) still loads, as
// base 0: every column written before frames of reference existed was
// hardened as its values stand.

var persistMagic = [8]byte{'A', 'H', 'E', 'A', 'D', 'C', 'O', '3'}

// persistMagicV2 is the magic of version 2 files, whose header has no
// base field.
var persistMagicV2 = [8]byte{'A', 'H', 'E', 'A', 'D', 'C', 'O', '2'}

// DefaultChunkRows is the chunk granularity WriteColumn uses: ~64K code
// words per chunk, so a flipped chunk costs at most 64K values to
// re-fetch rather than the whole column.
const DefaultChunkRows = 64 << 10

// maxChunkRows bounds the chunk granularity a file may declare, which in
// turn bounds the per-chunk buffer a reader allocates before the first
// read can fail (8 MiB at width 8).
const maxChunkRows = 1 << 20

// maxPersistRows bounds the row count a header may declare. Loads grow
// incrementally per chunk, so the cap only guards the int conversion.
const maxPersistRows = 1 << 48

// NumChunks returns the number of chunks a column of rows values splits
// into at the given chunk granularity.
func NumChunks(rows, chunkRows int) int {
	if rows <= 0 || chunkRows <= 0 {
		return 0
	}
	return (rows + chunkRows - 1) / chunkRows
}

// WriteColumn serializes the column at the default chunk granularity.
func WriteColumn(w io.Writer, c *Column) error {
	return WriteColumnChunked(w, c, DefaultChunkRows)
}

// WriteColumnChunked serializes the column with chunkRows values per
// CRC-framed chunk. Smaller chunks mean finer re-fetch granularity and
// more digest entries; DefaultChunkRows is the production setting.
func WriteColumnChunked(w io.Writer, c *Column, chunkRows int) error {
	if chunkRows <= 0 || chunkRows > maxChunkRows {
		return fmt.Errorf("storage: chunk granularity %d out of range [1, %d]", chunkRows, maxChunkRows)
	}
	bw := bufio.NewWriter(w)
	var codeA, codeBits uint64
	if c.code != nil {
		codeA = c.code.A()
		codeBits = uint64(c.code.DataBits())
	}
	hdr := make([]byte, 0, 8+7*binary.MaxVarintLen64)
	hdr = append(hdr, persistMagic[:]...)
	for _, v := range []uint64{uint64(c.kind), uint64(c.width), codeA, codeBits, c.base, uint64(c.Len()), uint64(chunkRows)} {
		hdr = binary.AppendUvarint(hdr, v)
	}
	bw.Write(hdr)
	writeCRC(bw, crc32.ChecksumIEEE(hdr))
	if c.kind == Str && c.dict != nil {
		var sec []byte
		sec = binary.AppendUvarint(sec, uint64(c.dict.Size()))
		for _, s := range c.dict.Values() {
			sec = binary.AppendUvarint(sec, uint64(len(s)))
			sec = append(sec, s...)
		}
		bw.Write(sec)
		writeCRC(bw, crc32.ChecksumIEEE(sec))
	}
	if c.kind == StrHeap && c.heap != nil {
		sz := binary.AppendUvarint(nil, uint64(len(c.heap.buf)))
		bw.Write(sz)
		bw.Write(c.heap.buf)
		crc := crc32.ChecksumIEEE(sz)
		crc = crc32.Update(crc, crc32.IEEETable, c.heap.buf)
		writeCRC(bw, crc)
	}
	n := c.Len()
	payload := make([]byte, 0, min(n, chunkRows)*c.width)
	for start := 0; start < n; start += chunkRows {
		end := min(start+chunkRows, n)
		payload = appendChunkPayload(payload[:0], c, start, end)
		bw.Write(payload)
		writeCRC(bw, crc32.ChecksumIEEE(payload))
	}
	return bw.Flush()
}

// appendChunkPayload serializes rows [start, end) of the column's
// physical words at its width, little-endian - the exact bytes a chunk
// carries on disk and on the anti-entropy wire, so CRCs computed from
// memory, snapshot, and peer agree byte-for-byte.
func appendChunkPayload(dst []byte, c *Column, start, end int) []byte {
	for i := start; i < end; i++ {
		v := c.Get(i)
		switch c.width {
		case 1:
			dst = append(dst, byte(v))
		case 2:
			dst = binary.LittleEndian.AppendUint16(dst, uint16(v))
		case 4:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		default:
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	}
	return dst
}

// ColumnChunkCRCs computes the per-chunk CRCs of the column's current
// in-memory contents at the given granularity - what WriteColumnChunked
// would store. Replicas compare these against a peer's digests to find
// diverged chunks without shipping data.
func ColumnChunkCRCs(c *Column, chunkRows int) ([]uint32, error) {
	if chunkRows <= 0 || chunkRows > maxChunkRows {
		return nil, fmt.Errorf("storage: chunk granularity %d out of range [1, %d]", chunkRows, maxChunkRows)
	}
	n := c.Len()
	crcs := make([]uint32, 0, NumChunks(n, chunkRows))
	var payload []byte
	for start := 0; start < n; start += chunkRows {
		end := min(start+chunkRows, n)
		payload = appendChunkPayload(payload[:0], c, start, end)
		crcs = append(crcs, crc32.ChecksumIEEE(payload))
	}
	return crcs, nil
}

func writeCRC(bw *bufio.Writer, crc uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], crc)
	bw.Write(b[:])
}

// crcReader wraps a reader, folding every byte it hands out into a
// running CRC and counting them, so ULEB-framed sections can be verified
// against their trailing CRC and located without a second pass.
type crcReader struct {
	r   *bufio.Reader
	crc uint32
	n   int64
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		var one [1]byte
		one[0] = b
		c.crc = crc32.Update(c.crc, crc32.IEEETable, one[:])
		c.n++
	}
	return b, err
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

// readCRC reads a stored section CRC and compares it against the
// computed one.
func readCRC(br *bufio.Reader, got uint32, what string) error {
	var b [4]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(b[:]) != got {
		return fmt.Errorf("storage: corrupt %s (CRC mismatch)", what)
	}
	return nil
}

// colMeta is the decoded self-description of a serialized column: the
// header fields plus the (verified) dictionary or heap, and the byte
// offset where chunk 0 starts.
type colMeta struct {
	kind      Kind
	width     int
	code      *an.Code
	base      uint64
	lifted    *an.Code
	rows      int
	chunkRows int
	dict      *Dict
	heap      *StringHeap
	dataOff   int64 // file offset of the first chunk
}

// readColumnMeta parses and verifies everything before the first chunk.
func readColumnMeta(br *bufio.Reader) (*colMeta, error) {
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	// hdr holds kind, width, codeA, codeBits, base, rows, chunkRows; a
	// version 2 header skips base, which stays 0.
	var hdr [7]uint64
	fields := []int{0, 1, 2, 3, 4, 5, 6}
	switch magic {
	case persistMagic:
	case persistMagicV2:
		fields = []int{0, 1, 2, 3, 5, 6}
	default:
		return nil, fmt.Errorf("storage: not an AHEAD column file")
	}
	cr := &crcReader{r: br, crc: crc32.ChecksumIEEE(magic[:])}
	for _, i := range fields {
		v, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, err
		}
		hdr[i] = v
	}
	if err := readCRC(br, cr.crc, "header"); err != nil {
		return nil, err
	}
	kind, width, codeA, codeBits, base, rows, chunkRows := hdr[0], hdr[1], hdr[2], hdr[3], hdr[4], hdr[5], hdr[6]
	if width != 1 && width != 2 && width != 4 && width != 8 {
		return nil, fmt.Errorf("storage: corrupt header: width %d", width)
	}
	if kind > uint64(StrHeap) {
		return nil, fmt.Errorf("storage: corrupt header: kind %d", kind)
	}
	if chunkRows == 0 || chunkRows > maxChunkRows {
		return nil, fmt.Errorf("storage: corrupt header: chunk granularity %d", chunkRows)
	}
	if rows > maxPersistRows {
		return nil, fmt.Errorf("storage: corrupt header: row count %d", rows)
	}
	m := &colMeta{kind: Kind(kind), width: int(width), rows: int(rows), chunkRows: int(chunkRows)}
	if codeA != 0 {
		code, err := an.New(codeA, uint(codeBits))
		if err != nil {
			return nil, fmt.Errorf("storage: corrupt header: %w", err)
		}
		m.code = code
		if m.lifted, err = liftCode(code, base); err != nil {
			return nil, fmt.Errorf("storage: corrupt header: base %d: %w", base, err)
		}
		m.base = base
	} else if base != 0 {
		return nil, fmt.Errorf("storage: corrupt header: base %d without a code", base)
	}
	metaLen := int64(len(magic)) + cr.n + 4
	if m.kind == Str {
		cr.crc, cr.n = 0, 0
		count, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, err
		}
		// Append rather than preallocate: count is untrusted until the
		// section CRC verifies, and a flipped high bit must fail at EOF,
		// not in make().
		vals := make([]string, 0, min(int(count), 4096))
		for i := uint64(0); i < count; i++ {
			l, err := binary.ReadUvarint(cr)
			if err != nil {
				return nil, err
			}
			if l > 1<<20 {
				return nil, fmt.Errorf("storage: corrupt dictionary entry length %d", l)
			}
			buf := make([]byte, l)
			if _, err := io.ReadFull(cr, buf); err != nil {
				return nil, err
			}
			vals = append(vals, string(buf))
		}
		if err := readCRC(br, cr.crc, "dictionary"); err != nil {
			return nil, err
		}
		m.dict = NewDict(vals)
		metaLen += cr.n + 4
	}
	if m.kind == StrHeap {
		cr.crc, cr.n = 0, 0
		size, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, err
		}
		if size > 1<<40 {
			return nil, fmt.Errorf("storage: corrupt heap size %d", size)
		}
		// Same untrusted-length discipline as the dictionary: read in
		// bounded pieces so a corrupt size fails at EOF, not in make().
		buf := make([]byte, 0, min(int(size), 1<<20))
		var piece [64 << 10]byte
		for read := uint64(0); read < size; {
			n := min(uint64(len(piece)), size-read)
			if _, err := io.ReadFull(cr, piece[:n]); err != nil {
				return nil, err
			}
			buf = append(buf, piece[:n]...)
			read += n
		}
		if err := readCRC(br, cr.crc, "heap"); err != nil {
			return nil, err
		}
		m.heap = &StringHeap{buf: buf}
		metaLen += cr.n + 4
	}
	m.dataOff = metaLen
	return m, nil
}

// ReadColumn deserializes a column written by WriteColumn and verifies
// its integrity chunk by chunk: unprotected payloads against their chunk
// CRCs, hardened payloads by AN-validating every code word (returning
// the corrupted positions alongside the column so callers can repair
// rather than refuse). Metadata - header, dictionary, heap - must
// verify exactly; it has no per-value repair story.
func ReadColumn(r io.Reader, name string) (*Column, []uint64, error) {
	br := bufio.NewReader(r)
	m, err := readColumnMeta(br)
	if err != nil {
		return nil, nil, err
	}
	c := &Column{name: name, kind: m.kind, width: m.width, code: m.code, base: m.base, lifted: m.lifted, dict: m.dict, heap: m.heap}
	var bad []uint64
	var payload []byte
	for start, chunk := 0, 0; start < m.rows; start, chunk = start+m.chunkRows, chunk+1 {
		rowsIn := min(m.rows-start, m.chunkRows)
		need := rowsIn * m.width
		if cap(payload) < need {
			payload = make([]byte, need)
		}
		payload = payload[:need]
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, nil, err
		}
		crc := crc32.ChecksumIEEE(payload)
		var stored [4]byte
		if _, err := io.ReadFull(br, stored[:]); err != nil {
			return nil, nil, err
		}
		// The chunk is framed; grow the column only once its bytes are
		// actually in hand (the row count steers allocation but cannot
		// trigger one beyond a chunk).
		c.grow(rowsIn)
		for i := 0; i < rowsIn; i++ {
			var v uint64
			switch m.width {
			case 1:
				v = uint64(payload[i])
			case 2:
				v = uint64(binary.LittleEndian.Uint16(payload[i*2:]))
			case 4:
				v = uint64(binary.LittleEndian.Uint32(payload[i*4:]))
			default:
				v = binary.LittleEndian.Uint64(payload[i*8:])
			}
			c.setU64(start+i, v)
		}
		badBefore := len(bad)
		bad = append(bad, c.checkRange(start, start+rowsIn)...)
		if binary.LittleEndian.Uint32(stored[:]) != crc {
			if c.code == nil {
				return nil, nil, fmt.Errorf("storage: unprotected column %q failed chunk %d's load-time CRC", name, chunk)
			}
			// Hardened chunks self-verify on value granularity; the CRC
			// only arbitrates what the code words cannot see (including a
			// flipped CRC byte itself).
			if len(bad) == badBefore {
				return nil, nil, fmt.Errorf("storage: hardened column %q failed chunk %d's CRC with every code word valid (metadata corruption)", name, chunk)
			}
		}
	}
	c.initPacked()
	return c, bad, nil
}
