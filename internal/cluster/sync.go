// Anti-entropy replica sync: the wire protocol replicas use to find and
// heal diverged column chunks. The exchange has two round-trip shapes:
//
//  1. GET /sync/digests - every AN column's rows, code parameters (A,
//     data width, frame of reference) and exact per-chunk CRC list. A receiver compares the lists chunk by
//     chunk; any CRC that differs names a chunk to fetch, so no silent
//     divergence escapes the comparison.
//  2. GET /sync/chunk?table=&column=&chunk= - one chunk's raw code
//     words. Still AN-encoded: the receiver re-verifies the transport
//     CRC and every word against the column's code before writing
//     anything, the same end-to-end discipline as the query wire format
//     (wire.go).
//
// Chunks are storage.DefaultChunkRows rows on both sides; the digest
// states the granularity and a receiver refuses a peer that differs.
//
// The types here are the versioned JSON bodies; SyncClient is the
// fetching side; PeerRepairSource adapts a peer to the exec package's
// RepairSource interface (structurally - no exec import) so the repair
// chain can heal straight from a replica.
package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ahead/internal/storage"
)

// SyncVersion is the anti-entropy wire version; mismatches are refused,
// never guessed at. Version 3 added the frame of reference (data_base)
// to digests and chunks.
const SyncVersion = 3

// maxSyncResponseBytes bounds one sync response body (a full chunk of
// 64K words as JSON numbers fits comfortably).
const maxSyncResponseBytes = 32 << 20

// ColumnDigest summarizes one AN-hardened column on a replica: its
// shape, its code, the frame of reference its words are stored from,
// and the CRC of every chunk's stored code words. Equal words under
// another base hold other values, so a peer whose base differs holds
// another coding, not a diverged chunk.
type ColumnDigest struct {
	Table    string   `json:"table"`
	Column   string   `json:"column"`
	Rows     int      `json:"rows"`
	CodeA    uint64   `json:"code_a"`
	DataBits uint     `json:"data_bits"`
	DataBase uint64   `json:"data_base"` // storage.Column.Base
	CRCs     []uint32 `json:"crcs"`
}

// DigestSummary is the body of GET /sync/digests: everything a peer
// needs to tell which chunks differ.
type DigestSummary struct {
	Version   int            `json:"version"`
	ChunkRows int            `json:"chunk_rows"`
	Columns   []ColumnDigest `json:"columns"`
}

// ChunkPayload is the body of GET /sync/chunk: one chunk's raw AN code
// words, the frame of reference they are stored from, and a transport
// CRC over their canonical little-endian encoding, so JSON-level damage
// is caught before the per-word AN check even runs.
type ChunkPayload struct {
	Version  int      `json:"version"`
	Table    string   `json:"table"`
	Column   string   `json:"column"`
	Chunk    int      `json:"chunk"`
	DataBase uint64   `json:"data_base"`
	Words    []uint64 `json:"words"`
	CRC      uint32   `json:"crc"`
}

// WordsCRC is the transport checksum of a chunk payload: CRC32 over the
// words' 8-byte little-endian encoding, width-independent so both sides
// compute it without knowing each other's physical layout.
func WordsCRC(words []uint64) uint32 {
	var b [8]byte
	crc := uint32(0)
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		crc = crc32.Update(crc, crc32.IEEETable, b[:])
	}
	return crc
}

// SyncFromPeerRequest is the body of POST /sync/from-peer: the replica
// receiving it syncs its hardened columns against the named peer.
type SyncFromPeerRequest struct {
	Peer string `json:"peer"`
}

// ColumnSyncReport is one column's outcome in a sync run.
type ColumnSyncReport struct {
	Table         string `json:"table"`
	Column        string `json:"column"`
	ChunksChecked int    `json:"chunks_checked"`
	ChunksHealed  int    `json:"chunks_healed"`
	WordsChanged  int    `json:"words_changed"`
	Cleared       bool   `json:"cleared,omitempty"` // quarantine lifted
	Skipped       string `json:"skipped,omitempty"` // why the column was not synced
}

// SyncReport is the body of a successful POST /sync/from-peer.
type SyncReport struct {
	Version int                `json:"version"`
	Peer    string             `json:"peer"`
	Columns []ColumnSyncReport `json:"columns"`
}

// TotalHealed sums the healed chunks across columns.
func (r *SyncReport) TotalHealed() int {
	n := 0
	for _, c := range r.Columns {
		n += c.ChunksHealed
	}
	return n
}

// SyncClient fetches the anti-entropy endpoints of one peer replica.
type SyncClient struct {
	base   string
	client *http.Client
}

// NewSyncClient builds a client for the peer's base URL ("http://host:
// port"). A nil http.Client gets a 30s-timeout default.
func NewSyncClient(base string, client *http.Client) *SyncClient {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &SyncClient{base: base, client: client}
}

// Base returns the peer base URL.
func (c *SyncClient) Base() string { return c.base }

// get fetches one sync URL into out, enforcing the size cap, status,
// and wire version.
func (c *SyncClient) get(ctx context.Context, path string, out interface{ version() int }) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxSyncResponseBytes+1))
	if err != nil {
		return err
	}
	if len(body) > maxSyncResponseBytes {
		return fmt.Errorf("cluster: sync response from %s exceeds %d bytes", c.base, maxSyncResponseBytes)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: sync %s%s: status %d: %.200s", c.base, path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("cluster: sync %s%s: %w", c.base, path, err)
	}
	if v := out.version(); v != SyncVersion {
		return fmt.Errorf("cluster: sync %s%s: wire version %d, want %d", c.base, path, v, SyncVersion)
	}
	return nil
}

func (d *DigestSummary) version() int { return d.Version }
func (p *ChunkPayload) version() int  { return p.Version }

// Digests fetches the peer's digest summary, refusing one cut at another
// chunk granularity than storage.DefaultChunkRows.
func (c *SyncClient) Digests(ctx context.Context) (*DigestSummary, error) {
	var sum DigestSummary
	if err := c.get(ctx, "/sync/digests", &sum); err != nil {
		return nil, err
	}
	if sum.ChunkRows != storage.DefaultChunkRows {
		return nil, fmt.Errorf("cluster: sync %s: chunk granularity %d, want %d", c.base, sum.ChunkRows, storage.DefaultChunkRows)
	}
	return &sum, nil
}

// FetchChunk fetches one storage.DefaultChunkRows chunk's code words,
// verifying the envelope (column identity, chunk index, the frame of
// reference base the caller's column is stored from) and the transport
// CRC. The words are still AN-encoded; the caller verifies them against
// the column's code before use.
func (c *SyncClient) FetchChunk(ctx context.Context, table, column string, chunk int, base uint64) ([]uint64, error) {
	path := "/sync/chunk?table=" + url.QueryEscape(table) +
		"&column=" + url.QueryEscape(column) +
		"&chunk=" + strconv.Itoa(chunk)
	var p ChunkPayload
	if err := c.get(ctx, path, &p); err != nil {
		return nil, err
	}
	if p.Table != table || p.Column != column || p.Chunk != chunk {
		return nil, fmt.Errorf("cluster: sync %s: chunk envelope %s.%s[%d], asked for %s.%s[%d]",
			c.base, p.Table, p.Column, p.Chunk, table, column, chunk)
	}
	if p.DataBase != base {
		return nil, fmt.Errorf("cluster: sync %s: chunk %s.%s[%d] is stored from base %d, the column from %d",
			c.base, table, column, chunk, p.DataBase, base)
	}
	if got := WordsCRC(p.Words); got != p.CRC {
		return nil, fmt.Errorf("cluster: sync %s: chunk %s.%s[%d] failed its transport CRC", c.base, table, column, chunk)
	}
	return p.Words, nil
}

// PeerRepairSource adapts a peer replica to the exec package's
// RepairSource interface (structurally, to keep cluster free of an exec
// dependency): an entry of the repair chain that pulls chunks straight
// from the peer.
type PeerRepairSource struct {
	c *SyncClient
}

// NewPeerRepairSource builds a repair source over the peer's base URL.
func NewPeerRepairSource(base string, client *http.Client) *PeerRepairSource {
	return &PeerRepairSource{c: NewSyncClient(base, client)}
}

// Name identifies the peer in repair errors and reports.
func (p *PeerRepairSource) Name() string { return "peer:" + p.c.Base() }

// Values fetches the chunk holding positions from the peer under the
// caller's context and verifies it - transport CRC, then every word
// under the column's current code, which a replica's words must pass -
// before returning the decoded values at positions. A column without an
// AN code gives a peer chunk nothing to be verified under.
func (p *PeerRepairSource) Values(ctx context.Context, table string, hc *storage.Column, positions []uint64) ([]uint64, error) {
	if hc.Code() == nil {
		return nil, fmt.Errorf("cluster: %s.%s has no AN code to verify a peer chunk under", table, hc.Name())
	}
	chunk := int(positions[0]) / storage.DefaultChunkRows
	words, err := p.c.FetchChunk(ctx, table, hc.Name(), chunk, hc.Base())
	if err != nil {
		return nil, err
	}
	return storage.VerifiedValues(hc.Code(), hc.Base(), words, chunk*storage.DefaultChunkRows, positions)
}
