package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ahead/internal/cluster"
	"ahead/internal/exec"
	"ahead/internal/faults"
	"ahead/internal/ssb"
	"ahead/internal/storage"
)

// tinyDBRows is tinyDB with a custom row count, for schema-mismatch
// sync cases where the peer's column shape must differ.
func tinyDBRows(t *testing.T, rows uint64) *exec.DB {
	t.Helper()
	tb := storage.NewTable("t")
	v, err := storage.NewColumn("v", storage.TinyInt)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.NewColumn("w", storage.Int)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < rows; i++ {
		v.Append(i % 50)
		w.Append(i * 3)
	}
	for _, c := range []*storage.Column{v, w} {
		if err := tb.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	db, err := exec.NewDB([]*storage.Table{tb}, storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func syncTestServer(t *testing.T, db *exec.DB) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

func TestSyncDigestsEndpoints(t *testing.T) {
	db := tinyDB(t)
	_, ts := syncTestServer(t, db)

	var sum cluster.DigestSummary
	if code := getJSON(t, ts.URL+"/sync/digests", &sum); code != http.StatusOK {
		t.Fatalf("summary status %d", code)
	}
	if sum.Version != cluster.SyncVersion || sum.ChunkRows != storage.DefaultChunkRows || len(sum.Columns) != 2 {
		t.Fatalf("summary: %+v", sum)
	}
	for _, c := range sum.Columns {
		crcs, err := db.ColumnChunkCRCs(c.Table, c.Column)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(c.CRCs, crcs) {
			t.Fatalf("%s.%s: digest CRCs %v, local %v", c.Table, c.Column, c.CRCs, crcs)
		}
	}
}

func TestSyncChunkEndpoint(t *testing.T) {
	db := tinyDB(t)
	_, ts := syncTestServer(t, db)

	var payload cluster.ChunkPayload
	if code := getJSON(t, ts.URL+"/sync/chunk?table=t&column=w&chunk=0", &payload); code != http.StatusOK {
		t.Fatalf("chunk status %d", code)
	}
	if len(payload.Words) != 256 || payload.CRC != cluster.WordsCRC(payload.Words) {
		t.Fatalf("payload: %d words, crc %d", len(payload.Words), payload.CRC)
	}
	var dummy json.RawMessage
	if code := getJSON(t, ts.URL+"/sync/chunk?table=t&column=w&chunk=-1", &dummy); code != http.StatusBadRequest {
		t.Fatalf("negative chunk must 400, got %d", code)
	}
	// 1<<48 chunks of 64K rows wrap to row 0 if multiplied unchecked.
	for _, chunk := range []string{"7", "281474976710656"} {
		if code := getJSON(t, ts.URL+"/sync/chunk?table=t&column=w&chunk="+chunk, &dummy); code != http.StatusNotFound {
			t.Fatalf("out-of-range chunk %s must 404, got %d", chunk, code)
		}
	}
}

func postSync(t *testing.T, url, peer string) (int, cluster.SyncReport, string) {
	t.Helper()
	body, _ := json.Marshal(cluster.SyncFromPeerRequest{Peer: peer})
	resp, err := http.Post(url+"/sync/from-peer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var report cluster.SyncReport
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &report); err != nil {
			t.Fatalf("decode sync report: %v\n%s", err, data)
		}
	}
	return resp.StatusCode, report, string(data)
}

// TestSyncFromPeerHealsCorruptReplica is the PR's acceptance path: a
// replica whose plain repair copy is gone carries a corrupted,
// quarantined hardened column; one POST /sync/from-peer against a
// healthy peer must heal it chunk-by-chunk via the digest diff, lift
// the quarantine, and make query results identical to the peer's.
func TestSyncFromPeerHealsCorruptReplica(t *testing.T) {
	dbPeer, dbVictim := tinyDB(t), tinyDB(t)
	_, tsPeer := syncTestServer(t, dbPeer)
	_, tsVictim := syncTestServer(t, dbVictim)

	query := QueryRequest{
		AdHoc: &ssb.AdHocSpec{
			Table: "t", Agg: "sum", AggCol: "w",
			Preds:   []ssb.AdHocPred{{Col: "v", Lo: 10, Hi: 19}},
			GroupBy: []string{"v"},
		},
		Mode: "continuous",
	}
	resp, refData := postQuery(t, tsPeer.URL, query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer reference query: %d\n%s", resp.StatusCode, refData)
	}
	ref := decodeResponse(t, refData)

	// The victim loses its plain repair copy and takes in-guarantee hits
	// in the hardened column; a prior recovery escalation quarantined it.
	dbVictim.DropPlainRepair()
	w := dbVictim.Hardened("t").MustColumn("w")
	inj := faults.NewInjector(99)
	for _, pos := range []int{3, 77, 200} {
		if _, err := inj.FlipAt(w, pos, 2); err != nil {
			t.Fatal(err)
		}
	}
	dbVictim.QuarantineColumn("w")

	code, report, raw := postSync(t, tsVictim.URL, tsPeer.URL)
	if code != http.StatusOK {
		t.Fatalf("sync status %d: %s", code, raw)
	}
	if report.TotalHealed() == 0 {
		t.Fatalf("sync healed nothing: %s", raw)
	}
	var wReport *cluster.ColumnSyncReport
	for i := range report.Columns {
		if report.Columns[i].Column == "w" {
			wReport = &report.Columns[i]
		}
	}
	if wReport == nil || wReport.Skipped != "" || wReport.ChunksHealed == 0 || wReport.WordsChanged != 3 {
		t.Fatalf("w column report: %+v", wReport)
	}
	if !wReport.Cleared || dbVictim.IsQuarantined("w") {
		t.Fatal("quarantine must be lifted once the column checks clean")
	}
	if bad, err := w.CheckAll(); err != nil || len(bad) != 0 {
		t.Fatalf("column not clean after sync: %v, %v", bad, err)
	}

	// The healed replica answers exactly like the peer, with no
	// detections - result rows, keys, aggregates all identical.
	resp, gotData := postQuery(t, tsVictim.URL, query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healed replica query: %d\n%s", resp.StatusCode, gotData)
	}
	got := decodeResponse(t, gotData)
	if got.Rows != ref.Rows || len(got.Detected) != 0 {
		t.Fatalf("healed replica: rows %d (want %d), detected %v", got.Rows, ref.Rows, got.Detected)
	}
	for r := range ref.Keys {
		for c := range ref.Keys[r] {
			if got.Keys[r][c] != ref.Keys[r][c] {
				t.Fatalf("row %d key %d: %d vs %d", r, c, got.Keys[r][c], ref.Keys[r][c])
			}
		}
	}
	for r := range ref.Aggs {
		if got.Aggs[r] != ref.Aggs[r] {
			t.Fatalf("row %d agg: %d vs %d", r, got.Aggs[r], ref.Aggs[r])
		}
	}

	// The pass is visible in the metrics.
	mresp, err := http.Get(tsVictim.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(metrics), "ahead_sync_runs_total 1") {
		t.Fatal("sync run not counted in /metrics")
	}
	if !strings.Contains(string(metrics), "ahead_sync_healed_chunks_total 1") {
		t.Fatal("healed chunks not counted in /metrics")
	}
}

// TestSyncFromPeerCleanIsNoop: identical replicas agree on every chunk
// CRC of the digest - nothing fetched, nothing healed, nothing skipped.
func TestSyncFromPeerCleanIsNoop(t *testing.T) {
	dbPeer, dbVictim := tinyDB(t), tinyDB(t)
	_, tsPeer := syncTestServer(t, dbPeer)
	_, tsVictim := syncTestServer(t, dbVictim)

	code, report, raw := postSync(t, tsVictim.URL, tsPeer.URL)
	if code != http.StatusOK {
		t.Fatalf("sync status %d: %s", code, raw)
	}
	if report.TotalHealed() != 0 || len(report.Columns) != 2 {
		t.Fatalf("clean sync report: %s", raw)
	}
	for _, cr := range report.Columns {
		if cr.Skipped != "" || cr.ChunksHealed != 0 {
			t.Fatalf("clean column report: %+v", cr)
		}
	}
}

// TestSyncFromPeerValidation: bad peers and bad requests fail loudly.
func TestSyncFromPeerValidation(t *testing.T) {
	db := tinyDB(t)
	_, ts := syncTestServer(t, db)

	if code, _, raw := postSync(t, ts.URL, ""); code != http.StatusBadRequest {
		t.Fatalf("empty peer must 400, got %d: %s", code, raw)
	}
	if code, _, raw := postSync(t, ts.URL, "http://127.0.0.1:1"); code != http.StatusBadGateway {
		t.Fatalf("unreachable peer must 502, got %d: %s", code, raw)
	}
	// A peer cut at another chunk granularity names different chunks by
	// the same index: refused whole.
	otherGrain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(&cluster.DigestSummary{Version: cluster.SyncVersion, ChunkRows: 1024})
	}))
	defer otherGrain.Close()
	if code, _, raw := postSync(t, ts.URL, otherGrain.URL); code != http.StatusBadGateway || !strings.Contains(raw, "chunk granularity") {
		t.Fatalf("a peer at another chunk granularity must 502, got %d: %s", code, raw)
	}
}

// TestSyncFromPeerSchemaMismatch: a peer with a different row count is
// never authoritative - its columns are skipped, local data untouched.
func TestSyncFromPeerSchemaMismatch(t *testing.T) {
	dbVictim := tinyDB(t)
	dbPeer := tinyDBRows(t, 128)
	_, tsPeer := syncTestServer(t, dbPeer)
	_, tsVictim := syncTestServer(t, dbVictim)

	code, report, raw := postSync(t, tsVictim.URL, tsPeer.URL)
	if code != http.StatusOK {
		t.Fatalf("sync status %d: %s", code, raw)
	}
	for _, cr := range report.Columns {
		if cr.Skipped == "" || cr.ChunksHealed != 0 {
			t.Fatalf("mismatched column must be skipped: %+v", cr)
		}
	}
}

// metricValue reads one unlabelled counter from the server's /metrics.
func metricValue(t *testing.T, url, name string) uint64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("%s missing from /metrics", name)
	return 0
}

// TestSyncHealsSilentDivergence: a replica holding a different but
// valid code word - a divergence no AN check can see - must still be
// healed, because the digest carries every chunk's exact CRC.
func TestSyncHealsSilentDivergence(t *testing.T) {
	peerSuite, _, err := ssb.NewSuite(0.01, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	localSuite, _, err := ssb.NewSuite(0.01, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dbPeer, dbLocal := peerSuite.DB, localSuite.DB
	_, tsPeer := syncTestServer(t, dbPeer)
	srv, _ := syncTestServer(t, dbLocal)

	qty := dbLocal.Hardened("lineorder").MustColumn("lo_quantity")
	qty.Set(3, 1)
	if bad := qty.BadPositions(); len(bad) != 0 || dbLocal.IsQuarantined("lo_quantity") {
		t.Fatalf("the divergence must be silent: bad %v, quarantined %v", bad, dbLocal.IsQuarantined("lo_quantity"))
	}
	crcs := func(db *exec.DB) []uint32 {
		c, err := db.ColumnChunkCRCs("lineorder", "lo_quantity")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if slices.Equal(crcs(dbLocal), crcs(dbPeer)) {
		t.Fatal("Set(3, 1) left the chunk CRCs equal")
	}

	report, err := srv.syncFromPeer(context.Background(), tsPeer.URL)
	if err != nil {
		t.Fatal(err)
	}
	if healed := report.TotalHealed(); healed != 1 {
		t.Fatalf("healed %d chunks, want 1", healed)
	}
	if local, peer := crcs(dbLocal), crcs(dbPeer); !slices.Equal(local, peer) {
		t.Fatalf("CRCs still differ after sync: %x vs %x", local, peer)
	}
}

// TestSyncFetchesOnlyDivergedChunks: one corrupt word in chunk 1 of a
// three-chunk column costs exactly one chunk fetch, and a second pass
// over converged replicas fetches nothing.
func TestSyncFetchesOnlyDivergedChunks(t *testing.T) {
	rows := uint64(2*storage.DefaultChunkRows + 100)
	dbPeer, dbLocal := tinyDBRows(t, rows), tinyDBRows(t, rows)
	_, tsPeer := syncTestServer(t, dbPeer)
	_, tsLocal := syncTestServer(t, dbLocal)

	w := dbLocal.Hardened("t").MustColumn("w")
	if _, err := faults.NewInjector(7).FlipAt(w, storage.DefaultChunkRows+5, 2); err != nil {
		t.Fatal(err)
	}
	const fetched = "ahead_sync_chunks_fetched_total"
	for pass, want := range []uint64{1, 1} {
		code, report, raw := postSync(t, tsLocal.URL, tsPeer.URL)
		if code != http.StatusOK {
			t.Fatalf("pass %d: sync status %d: %s", pass, code, raw)
		}
		if got := metricValue(t, tsLocal.URL, fetched); got != want {
			t.Fatalf("pass %d: %s = %d, want %d: %s", pass, fetched, got, want, raw)
		}
		for _, cr := range report.Columns {
			if cr.Skipped != "" || cr.ChunksChecked != 3 {
				t.Fatalf("pass %d column report: %+v", pass, cr)
			}
		}
	}
	if bad := w.BadPositions(); len(bad) != 0 {
		t.Fatalf("still corrupt at %v", bad)
	}
}

// dateDB is a one-table DB whose column d holds base+3i, hardened from
// the frame of reference base.
func dateDB(t *testing.T, base uint64) *exec.DB {
	t.Helper()
	tb := storage.NewTable("t")
	d, err := storage.NewColumn("d", storage.Int)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		d.Append(base + 3*i)
	}
	if err := tb.AddColumn(d); err != nil {
		t.Fatal(err)
	}
	db, err := exec.NewDB([]*storage.Table{tb}, storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Hardened("t").MustColumn("d").Base(); got != base {
		t.Fatalf("setup: d hardened from base %d, want %d", got, base)
	}
	return db
}

// TestSyncDataBaseMismatchIsACodingMismatch: two replicas whose column
// holds the same words from different frames of reference hold
// different values. Their digests differ only in data_base - same A,
// width, rows and chunk CRCs - and the sync must skip the column as a
// coding mismatch rather than call it in sync (or heal chunk by chunk).
func TestSyncDataBaseMismatchIsACodingMismatch(t *testing.T) {
	victim, peer := dateDB(t, 19920101), dateDB(t, 19920102)
	_, tsPeer := syncTestServer(t, peer)
	_, tsVictim := syncTestServer(t, victim)
	var local, remote cluster.DigestSummary
	getJSON(t, tsVictim.URL+"/sync/digests", &local)
	getJSON(t, tsPeer.URL+"/sync/digests", &remote)
	if len(local.Columns) != 1 || len(remote.Columns) != 1 {
		t.Fatalf("digests: %d and %d columns", len(local.Columns), len(remote.Columns))
	}
	l, r := local.Columns[0], remote.Columns[0]
	if l.DataBase == r.DataBase || l.CodeA != r.CodeA || l.DataBits != r.DataBits || !slices.Equal(l.CRCs, r.CRCs) {
		t.Fatalf("setup: digests %+v and %+v must differ in data_base only", l, r)
	}
	code, report, raw := postSync(t, tsVictim.URL, tsPeer.URL)
	if code != http.StatusOK {
		t.Fatalf("sync status %d: %s", code, raw)
	}
	if len(report.Columns) != 1 || report.Columns[0].Skipped == "" || report.Columns[0].ChunksChecked != 0 {
		t.Fatalf("a peer from another base must be skipped as a coding mismatch: %+v", report.Columns)
	}
	if got := victim.Hardened("t").MustColumn("d").Value(0); got != 19920101 {
		t.Fatalf("local data changed: row 0 reads %d", got)
	}
}

// TestSyncRefusesAVersion2Peer: a peer speaking SyncVersion 2 publishes
// digests without data_base; the sync refuses it by version instead of
// reading every base as 0.
func TestSyncRefusesAVersion2Peer(t *testing.T) {
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"version": 2, "chunk_rows": storage.DefaultChunkRows,
			"columns": []map[string]any{{"table": "t", "column": "d", "rows": 300, "code_a": 63877, "data_bits": 16, "crcs": []uint32{1}}},
		})
	}))
	t.Cleanup(old.Close)
	_, tsVictim := syncTestServer(t, dateDB(t, 19920101))
	code, _, raw := postSync(t, tsVictim.URL, old.URL)
	if code != http.StatusBadGateway || !strings.Contains(raw, "wire version 2, want 3") {
		t.Fatalf("sync from a version 2 peer: status %d: %s", code, raw)
	}
}
