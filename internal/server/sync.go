// Anti-entropy endpoints: this server's side of the replica sync
// protocol (cluster/sync.go). The GET endpoints publish what this
// replica holds - per-column chunk digests, bloom summary, raw chunks -
// and POST /sync/from-peer makes this replica *pull* from a named peer:
// compare digests, fetch diverged chunks, AN-verify every word, heal
// the hardened column (and its mirrors), and lift the quarantine once
// the column checks clean. The peer is authoritative for mismatching
// chunks; verification on receipt means a corrupt peer can fail a sync
// but never make local data worse.
package server

import (
	"context"
	"net/http"
	"sort"
	"strconv"

	"ahead/internal/cluster"
	"ahead/internal/storage"
)

// syncChunkRows is the digest and transfer granularity this server
// publishes - the persist format's default, so snapshot files, repair
// sources, and the wire all speak the same chunk coordinates.
const syncChunkRows = storage.DefaultChunkRows

// hardenedColumns enumerates this DB's hardened columns in stable
// (table, column) order.
func (s *Server) hardenedColumns() []cluster.ColumnDigest {
	var out []cluster.ColumnDigest
	tables := s.cfg.DB.Tables()
	sort.Strings(tables)
	for _, name := range tables {
		hTab := s.cfg.DB.Hardened(name)
		if hTab == nil {
			continue
		}
		for _, hc := range hTab.Columns() {
			code := hc.Code()
			if code == nil {
				continue
			}
			out = append(out, cluster.ColumnDigest{
				Table:    name,
				Column:   hc.Name(),
				Rows:     hc.Len(),
				Chunks:   storage.NumChunks(hc.Len(), syncChunkRows),
				CodeA:    code.A(),
				CodeBits: code.DataBits(),
			})
		}
	}
	return out
}

// handleSyncDigests serves GET /sync/digests: without parameters, the
// summary (column metadata + bloom filter over every chunk digest);
// with ?table=&column=, the exact CRC list for one column.
func (s *Server) handleSyncDigests(w http.ResponseWriter, r *http.Request) {
	table, column := r.URL.Query().Get("table"), r.URL.Query().Get("column")
	if (table == "") != (column == "") {
		writeError(w, http.StatusBadRequest, "set both table and column, or neither")
		return
	}
	if table != "" {
		crcs, err := s.cfg.DB.ColumnChunkCRCs(table, column, syncChunkRows)
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, &cluster.ChunkCRCList{
			Version: cluster.SyncVersion, Table: table, Column: column,
			ChunkRows: syncChunkRows, CRCs: crcs,
		})
		return
	}
	cols := s.hardenedColumns()
	entries := 0
	for _, c := range cols {
		entries += c.Chunks
	}
	bloom := cluster.NewBloom(entries)
	for _, c := range cols {
		crcs, err := s.cfg.DB.ColumnChunkCRCs(c.Table, c.Column, syncChunkRows)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		for chunk, crc := range crcs {
			bloom.Add(cluster.ChunkEntryHash(c.Table, c.Column, chunk, crc))
		}
	}
	writeJSON(w, http.StatusOK, &cluster.DigestSummary{
		Version: cluster.SyncVersion, ChunkRows: syncChunkRows,
		Columns: cols, BloomK: bloom.K(), Bloom: bloom.Encode(),
	})
}

// handleSyncChunk serves GET /sync/chunk?table=&column=&chunk_rows=&
// chunk=: one chunk's raw code words with a transport CRC.
func (s *Server) handleSyncChunk(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	table, column := q.Get("table"), q.Get("column")
	chunkRows, err := strconv.Atoi(q.Get("chunk_rows"))
	if err != nil || chunkRows <= 0 {
		writeError(w, http.StatusBadRequest, "bad chunk_rows %q", q.Get("chunk_rows"))
		return
	}
	chunk, err := strconv.Atoi(q.Get("chunk"))
	if err != nil || chunk < 0 {
		writeError(w, http.StatusBadRequest, "bad chunk %q", q.Get("chunk"))
		return
	}
	words, err := s.cfg.DB.ChunkWords(table, column, chunkRows, chunk)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, &cluster.ChunkPayload{
		Version: cluster.SyncVersion, Table: table, Column: column,
		ChunkRows: chunkRows, Chunk: chunk,
		Words: words, CRC: cluster.WordsCRC(words),
	})
}

// handleSyncFromPeer serves POST /sync/from-peer {"peer": url}: pull
// this replica's hardened columns level with the peer.
func (s *Server) handleSyncFromPeer(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.wg.Done()
	var req cluster.SyncFromPeerRequest
	if err := decodeRequest(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if req.Peer == "" {
		writeError(w, http.StatusBadRequest, "peer is required")
		return
	}
	report, err := s.syncFromPeer(r.Context(), req.Peer)
	if err != nil {
		s.metrics.syncFailed.Add(1)
		writeError(w, http.StatusBadGateway, "sync from %s: %v", req.Peer, err)
		return
	}
	s.metrics.syncRuns.Add(1)
	s.metrics.syncHealedChunks.Add(uint64(report.TotalHealed()))
	writeJSON(w, http.StatusOK, report)
}

// syncFromPeer runs one anti-entropy pass against the peer: bloom
// compare first, exact CRC lists for suspect columns, chunk fetch +
// AN-verified heal for diverged chunks, quarantine lift once a column
// checks fully clean.
func (s *Server) syncFromPeer(ctx context.Context, peer string) (*cluster.SyncReport, error) {
	client := cluster.NewSyncClient(peer, nil)
	sum, bloom, err := client.Digests(ctx)
	if err != nil {
		return nil, err
	}
	peerCols := make(map[string]cluster.ColumnDigest, len(sum.Columns))
	for _, c := range sum.Columns {
		peerCols[c.Table+"."+c.Column] = c
	}
	report := &cluster.SyncReport{Version: cluster.SyncVersion, Peer: peer}
	for _, local := range s.hardenedColumns() {
		cr := cluster.ColumnSyncReport{Table: local.Table, Column: local.Column}
		pd, ok := peerCols[local.Table+"."+local.Column]
		switch {
		case !ok:
			cr.Skipped = "peer does not hold this column"
		case pd.CodeA != local.CodeA || pd.CodeBits != local.CodeBits || pd.Rows != local.Rows:
			cr.Skipped = "peer column schema differs (rows or code parameters)"
		}
		if cr.Skipped != "" {
			report.Columns = append(report.Columns, cr)
			continue
		}
		localCRCs, err := s.cfg.DB.ColumnChunkCRCs(local.Table, local.Column, sum.ChunkRows)
		if err != nil {
			return nil, err
		}
		cr.ChunksChecked = len(localCRCs)
		// The bloom filter clears definitely-identical columns cheaply.
		// Suspicion - quarantine, or any locally invalid code word -
		// overrides a bloom hit: false positives must not mask a chunk
		// that genuinely needs healing.
		suspect := s.cfg.DB.IsQuarantined(local.Column)
		if hc, herr := s.cfg.DB.Hardened(local.Table).Column(local.Column); !suspect && herr == nil {
			suspect = len(hc.BadPositions()) > 0
		}
		if !suspect {
			miss := false
			for chunk, crc := range localCRCs {
				if !bloom.Has(cluster.ChunkEntryHash(local.Table, local.Column, chunk, crc)) {
					miss = true
					break
				}
			}
			if !miss {
				report.Columns = append(report.Columns, cr)
				continue
			}
		}
		exact, err := client.ColumnCRCs(ctx, local.Table, local.Column)
		if err != nil {
			return nil, err
		}
		if exact.ChunkRows != sum.ChunkRows || len(exact.CRCs) != len(localCRCs) {
			cr.Skipped = "peer CRC list does not match local chunking"
			report.Columns = append(report.Columns, cr)
			continue
		}
		for chunk := range localCRCs {
			if localCRCs[chunk] == exact.CRCs[chunk] {
				continue
			}
			words, err := client.FetchChunk(ctx, local.Table, local.Column, sum.ChunkRows, chunk)
			if err != nil {
				return nil, err
			}
			s.metrics.syncChunksFetched.Add(1)
			s.metrics.syncBytes.Add(uint64(len(words) * 8))
			changed, err := s.cfg.DB.HealChunk(local.Table, local.Column, sum.ChunkRows, chunk, words)
			if err != nil {
				// An AN-invalid peer chunk: refuse it and leave local data
				// untouched rather than spreading corruption.
				cr.Skipped = err.Error()
				break
			}
			cr.ChunksHealed++
			cr.WordsChanged += changed
		}
		if cr.Skipped == "" && s.cfg.DB.IsQuarantined(local.Column) {
			if hc, herr := s.cfg.DB.Hardened(local.Table).Column(local.Column); herr == nil && len(hc.BadPositions()) == 0 {
				s.cfg.DB.ClearQuarantine(local.Column)
				cr.Cleared = true
			}
		}
		report.Columns = append(report.Columns, cr)
	}
	return report, nil
}
