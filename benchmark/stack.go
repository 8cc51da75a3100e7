package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"ahead/internal/cluster"
	"ahead/internal/exec"
	"ahead/internal/faults"
	"ahead/internal/server"
	"ahead/internal/ssb"
	"ahead/internal/storage"
)

// How a serving layer is reached: not built, called in process through
// its http.Handler (layer probes of workloads that do not serve), or
// behind a loopback listener.
type reach int

const (
	absent reach = iota
	inProcess
	loopback
)

// stackSpec says which heights a set-up builds.
type stackSpec struct {
	sf      float64
	seed    int64
	node    reach
	cluster reach
	tracer  *tracer
}

const shardCount = 2

// stack is the system under test as one process holds it: the generated
// data, the single-node DB, and whichever serving heights the workload
// drives.
type stack struct {
	spec stackSpec
	data *ssb.Data
	db   *exec.DB // single-node DB; nil on a cluster-only set-up

	node    *server.Server
	nodeURL string

	shardDBs  []*exec.DB
	shards    []*server.Server
	shardURLs []string
	router    *cluster.Router
	routerURL string

	client *http.Client
	// generateS and newdbS split set-up time by layer.
	generateS, newdbS float64
	closers           []func()
}

// maxProcs is the benchmark's sizing rule: never more than four cores,
// never more than the machine has.
func maxProcs() int { return min(runtime.NumCPU(), 4) }

// newPool refuses a morsel pool with more workers than cores: such a row
// measures the scheduler, not the engine.
func newPool(workers int) (*exec.Pool, error) {
	if workers < 1 || workers > runtime.NumCPU() {
		return nil, fmt.Errorf("refusing a pool of %d workers on %d cores", workers, runtime.NumCPU())
	}
	return exec.NewPool(workers), nil
}

// transport reaches each height the way the set-up built it: a host with
// an in-process handler is answered by calling the handler directly, with
// no socket; every other host goes over the loopback sockets.
type transport struct {
	inProcess map[string]http.Handler // by URL host
	sockets   http.RoundTripper
}

func (t transport) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := t.inProcess[r.URL.Host]
	if !ok {
		return t.sockets.RoundTrip(r)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// buildStack is one complete set-up: generate, harden, start servers,
// wait until every /readyz answers.
func buildStack(spec stackSpec) (st *stack, err error) {
	st = &stack{spec: spec}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	procs := runtime.GOMAXPROCS(0)

	t0 := time.Now()
	if st.data, err = ssb.Generate(spec.sf, spec.seed); err != nil {
		return nil, err
	}
	st.generateS = time.Since(t0).Seconds()

	t0 = time.Now()
	if spec.cluster == absent || spec.node != absent {
		if st.db, err = exec.NewDB(st.data.Tables(), storage.LargestCodeChooser); err != nil {
			return nil, err
		}
	}
	for i := 0; i < shardCount && spec.cluster != absent; i++ {
		part, perr := ssb.Partition(st.data, cluster.ShardSpec{Index: i, Count: shardCount})
		if perr != nil {
			return nil, perr
		}
		db, derr := exec.NewDB(part.Tables(), storage.LargestCodeChooser)
		if derr != nil {
			return nil, derr
		}
		st.shardDBs = append(st.shardDBs, db)
	}
	st.newdbS = time.Since(t0).Seconds()

	inproc := map[string]http.Handler{}
	serve := func(h http.Handler, how reach, name string) (string, error) {
		if how == inProcess {
			inproc[name] = h
			return "http://" + name, nil
		}
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return "", lerr
		}
		srv := &http.Server{Handler: h}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(ln) // always returns http.ErrServerClosed after Close
		}()
		st.closers = append(st.closers, func() {
			_ = srv.Close()
			<-done
		})
		return "http://" + ln.Addr().String(), nil
	}
	// Concurrency comes from concurrent queries, one core each: no morsel
	// pool behind a server, as many execution slots as cores.
	newServer := func(db *exec.DB, shard cluster.ShardSpec) (*server.Server, error) {
		return server.New(server.Config{
			DB:          db,
			MaxInFlight: procs,
			Shard:       shard,
			Injector:    faults.NewInjector(spec.seed),
		})
	}

	sockets := &http.Transport{MaxIdleConnsPerHost: procs, MaxConnsPerHost: procs}
	st.closers = append(st.closers, sockets.CloseIdleConnections)
	st.client = &http.Client{Transport: transport{inproc, sockets}}

	if spec.node != absent {
		if st.node, err = newServer(st.db, cluster.ShardSpec{}); err != nil {
			return nil, err
		}
		if st.nodeURL, err = serve(traced(st.node, spec.tracer, layerServer, 0), spec.node, "node"); err != nil {
			return nil, err
		}
	}
	if spec.cluster != absent {
		for i, db := range st.shardDBs {
			srv, serr := newServer(db, cluster.ShardSpec{Index: i, Count: shardCount})
			if serr != nil {
				return nil, serr
			}
			url, uerr := serve(traced(srv, spec.tracer, layerShard, i), spec.cluster, fmt.Sprintf("shard%d", i))
			if uerr != nil {
				return nil, uerr
			}
			st.shards, st.shardURLs = append(st.shards, srv), append(st.shardURLs, url)
		}
		// Router defaults throughout: 100 ms hedge delay, probes on.
		rt, rerr := cluster.NewRouter(cluster.RouterConfig{Shards: st.shardURLs, Client: st.client})
		if rerr != nil {
			return nil, rerr
		}
		st.router = rt
		st.closers = append(st.closers, rt.Close)
		if st.routerURL, err = serve(traced(rt, spec.tracer, layerRouter, 0), spec.cluster, "router"); err != nil {
			return nil, err
		}
	}
	return st, st.awaitReady()
}

// awaitReady polls every /readyz until it answers 200. A listener
// accepts from the moment net.Listen returns, so the first poll normally
// succeeds; the loop yields rather than sleeps.
func (st *stack) awaitReady() error {
	urls := append([]string(nil), st.shardURLs...)
	if st.nodeURL != "" {
		urls = append(urls, st.nodeURL)
	}
	if st.routerURL != "" {
		urls = append(urls, st.routerURL)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, u := range urls {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/readyz", nil)
			if err != nil {
				return err
			}
			resp, err := st.client.Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if ctx.Err() != nil {
				return fmt.Errorf("%s/readyz not ready: %v", u, err)
			}
			runtime.Gosched()
		}
	}
	return nil
}

// close stops every listener and loop the set-up started and waits for
// each to end.
func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}
