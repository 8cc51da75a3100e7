package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"ahead/internal/exec"
	"ahead/internal/faults"
	"ahead/internal/ops"
	"ahead/internal/server"
	"ahead/internal/ssb"
	"ahead/internal/storage"
)

// answer is one query's outcome as the client at a given height sees it.
type answer struct {
	res *ops.Result
	// detections counts the corrupt positions the answer reported (for a
	// healing answer, the ones its retries were spent on); repaired
	// counts the positions a healing run repaired.
	detections, repaired int
	// attempts is the number of executions the answer took (1 unless a
	// repair-and-retry happened).
	attempts int
	degraded bool    // a fallback or a missing slice stands behind the answer
	execMS   float64 // execution time the server reported; 0 at engine height
}

// target is one height of the system: the engine called directly, one
// server, or the router in front of two shards.
type target interface {
	// ask answers one flight. heal asks for repair-and-retry where the
	// height offers it on the query path.
	ask(flight string, mode exec.Mode, heal bool) (answer, error)
	// plant flips bits of one word of the named lineorder column (the
	// server's default weight) and returns how many words it hit.
	plant(col string) (int, error)
	// askHealing answers a flight that meets a planted flip and returns
	// only once a clean, correct answer is in hand - detection to healthy
	// as this height's client has to do it.
	askHealing(flight string) (answer, error)
}

// engineTarget calls exec.Run directly: the blocked flavor, serial.
type engineTarget struct {
	db  *exec.DB
	inj *faults.Injector
}

func (e *engineTarget) ask(flight string, mode exec.Mode, heal bool) (answer, error) {
	plan := ssb.Queries[flight]
	if heal {
		res, rep, err := exec.RunWithRecovery(e.db, mode, ops.Blocked, plan, exec.WithDegradedFallback(true))
		if err != nil {
			return answer{}, err
		}
		a := answer{res: res, attempts: rep.Attempts, repaired: rep.RepairedCount(), degraded: rep.Degraded}
		if a.attempts > 1 {
			a.detections = a.repaired
		}
		return a, nil
	}
	res, log, err := exec.Run(e.db, mode, ops.Blocked, plan)
	if err != nil {
		return answer{}, err
	}
	return answer{res: res, attempts: 1, detections: log.Count()}, nil
}

// flipWeight is the server's injection policy (server/inject.go), which
// the engine height has to restate because it plants without a server:
// code words of up to 32 data bits take a double flip.
func flipWeight(col *storage.Column) int {
	if code := col.Code(); code != nil && code.DataBits() > 32 {
		return 1
	}
	return 2
}

func (e *engineTarget) plant(col string) (int, error) {
	c, err := e.db.Hardened("lineorder").Column(col)
	if err != nil {
		return 0, err
	}
	pos, err := e.inj.Fork().FlipRandom(c, 1, flipWeight(c))
	return len(pos), err
}

func (e *engineTarget) askHealing(flight string) (answer, error) {
	return e.ask(flight, exec.Continuous, true)
}

// httpTarget speaks the serving protocol to one server or to the router.
type httpTarget struct {
	client *http.Client
	url    string
	// shardURLs is set for the router only. The router's query path has
	// no repair-and-retry, so healing goes to the shard that detected.
	shardURLs []string
}

// wireAnswer is the union of server.QueryResponse and
// cluster.RouterResponse fields the benchmark reads.
type wireAnswer struct {
	Keys           [][]uint64           `json:"keys"`
	Aggs           []uint64             `json:"aggs"`
	Detected       map[string][]uint64  `json:"detected"`
	Recovery       *server.RecoveryInfo `json:"recovery"`
	ShardsAnswered int                  `json:"shards_answered"`
	ShardsTotal    int                  `json:"shards_total"`
	Degraded       bool                 `json:"degraded"`
	ElapsedMS      float64              `json:"elapsed_ms"`
}

func (h *httpTarget) post(url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := h.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (h *httpTarget) query(url, flight string, mode exec.Mode, heal bool) (answer, map[string][]uint64, error) {
	var w wireAnswer
	req := server.QueryRequest{Query: flight, Mode: mode.String(), Heal: heal}
	if err := h.post(url+"/query", req, &w); err != nil {
		return answer{}, nil, err
	}
	if len(w.Keys) != len(w.Aggs) {
		return answer{}, nil, fmt.Errorf("%s: %d key tuples vs %d aggregates", flight, len(w.Keys), len(w.Aggs))
	}
	a := answer{
		res:      &ops.Result{Keys: w.Keys, Aggs: w.Aggs},
		attempts: 1,
		degraded: w.Degraded || w.ShardsAnswered != w.ShardsTotal,
		execMS:   w.ElapsedMS,
	}
	for _, pos := range w.Detected {
		a.detections += len(pos)
	}
	if r := w.Recovery; r != nil {
		a.attempts = r.Attempts
		a.degraded = a.degraded || r.Degraded
		for _, pos := range r.Repaired {
			a.repaired += len(pos)
		}
		if a.attempts > 1 {
			a.detections += a.repaired
		}
	}
	return a, w.Detected, nil
}

func (h *httpTarget) ask(flight string, mode exec.Mode, heal bool) (answer, error) {
	a, _, err := h.query(h.url, flight, mode, heal && h.shardURLs == nil)
	return a, err
}

func (h *httpTarget) plant(col string) (int, error) {
	var resp server.InjectResponse
	err := h.post(h.url+"/inject", server.InjectRequest{Col: col}, &resp)
	return len(resp.Positions), err
}

func (h *httpTarget) askHealing(flight string) (answer, error) {
	if h.shardURLs == nil {
		return h.ask(flight, exec.Continuous, true)
	}
	// Through the router: the first answer names the shard that
	// detected ("shard1/lo_custkey"), a healing query on that shard
	// repairs it, and a second router answer is the healthy one.
	first, detected, err := h.query(h.url, flight, exec.Continuous, false)
	if err != nil {
		return answer{}, err
	}
	healed := answer{attempts: 1}
	for name := range detected {
		idx, err := strconv.Atoi(strings.TrimPrefix(strings.SplitN(name, "/", 2)[0], "shard"))
		if err != nil || idx < 0 || idx >= len(h.shardURLs) {
			return answer{}, fmt.Errorf("%s: cannot attribute detection %q to a shard", flight, name)
		}
		a, _, err := h.query(h.shardURLs[idx], flight, exec.Continuous, true)
		if err != nil {
			return answer{}, err
		}
		healed.attempts++
		healed.repaired += a.repaired
		healed.degraded = healed.degraded || a.degraded
	}
	if first.detections == 0 {
		return first, nil
	}
	second, err := h.ask(flight, exec.Continuous, false)
	if err != nil {
		return answer{}, err
	}
	second.attempts += healed.attempts
	second.detections += first.detections
	second.repaired = healed.repaired
	second.degraded = second.degraded || healed.degraded
	return second, nil
}
