package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ahead/internal/exec"
)

// fuzzServer is built once per process over the tiny DB: the fuzzer
// explores the request decoder and validation paths, not query
// execution, so the database can be minimal.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
	fuzzErr  error
)

func fuzzServer(t testing.TB) *Server {
	t.Helper()
	fuzzOnce.Do(func() {
		fuzzSrv, fuzzErr = New(Config{
			DB:      tinyDB(t),
			Queries: map[string]exec.QueryFunc{"sum": sumPlan},
		})
	})
	if fuzzErr != nil {
		t.Fatal(fuzzErr)
	}
	return fuzzSrv
}

// FuzzServerQueryRequest hammers POST /query with arbitrary bodies.
// The invariants: the handler never panics, every response is one of
// the protocol's statuses, and a 200 always echoes a mode that parses
// back to what the request asked for — a malformed or garbage mode
// must never fall through to an unhardened (or any default) run.
func FuzzServerQueryRequest(f *testing.F) {
	f.Add([]byte(`{"query":"sum"}`))
	f.Add([]byte(`{"query":"sum","mode":"dmr","flavor":"blocked"}`))
	f.Add([]byte(`{"query":"sum","mode":"UNPROTECTED","deadline_ms":5000}`))
	f.Add([]byte(`{"adhoc":{"table":"t","agg":"count"}}`))
	f.Add([]byte(`{"adhoc":{"table":"t","agg":"sum","agg_col":"w","preds":[{"col":"v","lo":1,"hi":9}],"group_by":["v"]}}`))
	f.Add([]byte(`{"query":"sum","heal":true}`))
	f.Add([]byte(`{"query":"sum","mode":"continuos"}`))
	f.Add([]byte(`{"query":"sum","unknown_field":1}`))
	f.Add([]byte(`{"query":"sum","deadline_ms":-1}`))
	f.Add([]byte(`{"query":"sum"} trailing`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"adhoc":{"table":"t","agg":"count","preds":[{"col":"v","lo":9,"hi":1}]}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		srv := fuzzServer(t)
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusTooManyRequests, http.StatusInternalServerError,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d outside the protocol for body %q", rec.Code, body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		// Success: the served mode must be exactly what the request
		// parsed to (default Continuous), never a silent fallback.
		var in QueryRequest
		if err := json.Unmarshal(body, &in); err != nil {
			t.Fatalf("200 for a body the strict decoder should reject: %q", body)
		}
		want := exec.Continuous
		if in.Mode != "" {
			m, err := exec.ParseMode(in.Mode)
			if err != nil {
				t.Fatalf("200 for unparseable mode %q", in.Mode)
			}
			want = m
		}
		var out QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("200 body does not decode: %v", err)
		}
		if out.Mode != want.String() {
			t.Fatalf("requested mode %q, served %q", in.Mode, out.Mode)
		}
	})
}
