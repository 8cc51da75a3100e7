// Command ahead-router is the scatter-gather front end of a sharded
// ahead-serve cluster. It fans each POST /query out to every healthy
// shard's /partial endpoint, verifies the AN-hardened partial
// aggregates at the merge point, and answers with the merged result -
// a bit flip anywhere in a shard's response body is detected and
// attributed to that shard, exactly like an in-memory flip.
//
//	ahead-router -addr :8080 \
//	    -shards http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// Each comma-separated slice may list replicas separated by "|", the
// preferred one first:
//
//	ahead-router -addr :8080 \
//	    -shards 'http://127.0.0.1:8081|http://127.0.0.1:9081,http://127.0.0.1:8082|http://127.0.0.1:9082'
//
// Shard health is probed continuously; a replica that fails
// consecutive probes (or scatter requests) is quarantined with
// exponential-backoff re-admission. With replicas configured the
// router self-heals through one remediation rule set: a healthy peer
// is promoted when the preferred replica is lost, -sync-on-quarantine
// orders the lost replica to sync from that peer, and -restart-cmd
// runs once a replica has stayed down for three quarantine windows.
// Slow primaries are hedged after -hedge-delay, and shed (429/503)
// slices are retried on a peer immediately. Only when a whole slice is out
// does the cluster degrade to partial results - every response
// carries shards_answered/shards_total so clients see the coverage
// they got, and GET /alerts exposes the remediation history.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ahead/internal/cluster"
)

func main() {
	var (
		addr            = flag.String("addr", ":8080", "listen address")
		shards          = flag.String("shards", "", "comma-separated shard base URLs, in shard order")
		requestTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-shard scatter request timeout")
		probeInterval   = flag.Duration("probe-interval", 500*time.Millisecond, "health-probe period")
		probeTimeout    = flag.Duration("probe-timeout", 2*time.Second, "single-probe timeout")
		quarantineAfter = flag.Int("quarantine-after", 3, "consecutive failures before quarantine")
		backoffBase     = flag.Duration("backoff-base", 2*time.Second, "initial quarantine window")
		backoffMax      = flag.Duration("backoff-max", 30*time.Second, "quarantine window cap")
		recoverAfter    = flag.Int("recover-after", 3, "consecutive healthy probes that decay one backoff level")
		hedgeDelay      = flag.Duration("hedge-delay", 100*time.Millisecond, "wait before hedging a slice request to its replica (0 disables)")
		restartCmd      = flag.String("restart-cmd", "", "shell hook run when a replica exceeds its quarantine budget (gets AHEAD_SHARD_URL, AHEAD_SLICE, AHEAD_REPLICA)")
		syncOnQuar      = flag.Bool("sync-on-quarantine", false, "on quarantine, order the victim to anti-entropy sync its hardened columns from a healthy peer in its slice")
	)
	flag.Parse()

	var slices [][]string
	replicas := 0
	for _, group := range strings.Split(*shards, ",") {
		var reps []string
		for _, u := range strings.Split(group, "|") {
			if u = strings.TrimSpace(u); u != "" {
				reps = append(reps, u)
			}
		}
		if len(reps) > 0 {
			slices = append(slices, reps)
			replicas += len(reps)
		}
	}
	// The config treats 0 as "use the default"; the flag treats 0 as
	// "hedging off".
	hedge := *hedgeDelay
	if hedge <= 0 {
		hedge = -1
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Slices:           slices,
		RequestTimeout:   *requestTimeout,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		QuarantineAfter:  *quarantineAfter,
		BackoffBase:      *backoffBase,
		BackoffMax:       *backoffMax,
		RecoverAfter:     *recoverAfter,
		HedgeDelay:       hedge,
		RestartCommand:   *restartCmd,
		SyncOnQuarantine: *syncOnQuar,
	})
	if err != nil {
		log.Fatalf("configure router: %v", err)
	}
	defer rt.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("routing on %s over %d slices (%d replicas)", *addr, len(slices), replicas)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatalf("listen: %v", err)
	case got := <-sig:
		log.Printf("%v: shutting down...", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	fmt.Println("bye")
}
