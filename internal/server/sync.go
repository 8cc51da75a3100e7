// Anti-entropy endpoints: this server's side of the replica sync
// protocol (cluster/sync.go). The GET endpoints publish what this
// replica holds - every AN column's exact per-chunk CRCs, and raw
// chunks - and POST /sync/from-peer makes this replica *pull* from a
// named peer: compare the CRC lists chunk by chunk, fetch the chunks
// that differ, AN-verify every word, heal the hardened column (and its
// mirrors), and lift the quarantine once the column checks clean. The
// peer is authoritative for mismatching chunks; verification on receipt
// means a corrupt peer can fail a sync but never make local data worse.
package server

import (
	"context"
	"net/http"
	"strconv"

	"ahead/internal/cluster"
	"ahead/internal/storage"
)

// digests lists every AN column of this replica with its exact chunk
// CRCs, in (table, column) order.
func (s *Server) digests() ([]cluster.ColumnDigest, error) {
	var out []cluster.ColumnDigest
	for _, cc := range s.cfg.DB.ColumnCodings() {
		if cc.Scheme != "an" {
			continue
		}
		crcs, err := s.cfg.DB.ColumnChunkCRCs(cc.Table, cc.Column)
		if err != nil {
			return nil, err
		}
		out = append(out, cluster.ColumnDigest{
			Table: cc.Table, Column: cc.Column, Rows: cc.Rows,
			CodeA: cc.A, DataBits: cc.DataBits, DataBase: cc.DataBase, CRCs: crcs,
		})
	}
	return out, nil
}

// handleSyncDigests serves GET /sync/digests: every AN column's shape,
// code and exact per-chunk CRC list.
func (s *Server) handleSyncDigests(w http.ResponseWriter, r *http.Request) {
	cols, err := s.digests()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, &cluster.DigestSummary{
		Version: cluster.SyncVersion, ChunkRows: storage.DefaultChunkRows, Columns: cols,
	})
}

// handleSyncChunk serves GET /sync/chunk?table=&column=&chunk=: one
// chunk's raw code words with a transport CRC.
func (s *Server) handleSyncChunk(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	table, column := q.Get("table"), q.Get("column")
	chunk, err := strconv.Atoi(q.Get("chunk"))
	if err != nil || chunk < 0 {
		writeError(w, http.StatusBadRequest, "bad chunk %q", q.Get("chunk"))
		return
	}
	words, err := s.cfg.DB.ChunkWords(table, column, chunk)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	hc, err := s.cfg.DB.Hardened(table).Column(column)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, &cluster.ChunkPayload{
		Version: cluster.SyncVersion, Table: table, Column: column,
		Chunk: chunk, DataBase: hc.Base(), Words: words, CRC: cluster.WordsCRC(words),
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

// syncFromPeer runs one anti-entropy pass against the peer: compare
// every column's chunk CRCs with the peer's, fetch and AN-verify-heal
// each chunk that differs, lift the quarantine once a column checks
// fully clean.
func (s *Server) syncFromPeer(ctx context.Context, peer string) (*cluster.SyncReport, error) {
	client := cluster.NewSyncClient(peer, nil)
	sum, err := client.Digests(ctx)
	if err != nil {
		return nil, err
	}
	peerCols := make(map[string]cluster.ColumnDigest, len(sum.Columns))
	for _, c := range sum.Columns {
		peerCols[c.Table+"."+c.Column] = c
	}
	locals, err := s.digests()
	if err != nil {
		return nil, err
	}
	report := &cluster.SyncReport{Version: cluster.SyncVersion, Peer: peer}
	for _, local := range locals {
		cr := cluster.ColumnSyncReport{Table: local.Table, Column: local.Column}
		pd, ok := peerCols[local.Table+"."+local.Column]
		switch {
		case !ok:
			cr.Skipped = "peer does not hold this column"
		case pd.CodeA != local.CodeA || pd.DataBits != local.DataBits || pd.DataBase != local.DataBase || pd.Rows != local.Rows:
			cr.Skipped = "peer column schema differs (rows or code parameters)"
		case len(pd.CRCs) != len(local.CRCs):
			cr.Skipped = "peer CRC list does not match local chunking"
		}
		if cr.Skipped != "" {
			report.Columns = append(report.Columns, cr)
			continue
		}
		cr.ChunksChecked = len(local.CRCs)
		for chunk, crc := range local.CRCs {
			if crc == pd.CRCs[chunk] {
				continue
			}
			words, err := client.FetchChunk(ctx, local.Table, local.Column, chunk, local.DataBase)
			if err != nil {
				return nil, err
			}
			s.metrics.syncChunksFetched.Add(1)
			s.metrics.syncBytes.Add(uint64(len(words) * 8))
			changed, err := s.cfg.DB.HealChunk(local.Table, local.Column, chunk, words)
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
