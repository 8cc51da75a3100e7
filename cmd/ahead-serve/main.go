// Command ahead-serve boots the hardened query service: it generates
// the SSB database at the requested scale factor once, hardens it, and
// serves prepared flights and ad-hoc requests over HTTP until SIGTERM,
// then drains gracefully.
//
//	ahead-serve -addr :8080 -sf 0.01 -inject-seed 42
//
// With -inject-seed set, POST /inject plants bit flips into hardened
// base columns so detection (and, with {"heal":true}, repair) can be
// exercised end to end; leave it unset for a clean server.
//
// With -shard i/n the server owns only its hash-assigned slice of the
// lineorder fact table (dimensions replicated) and additionally serves
// POST /partial, the hardened partial-aggregate endpoint the
// ahead-router scatter-gathers over. -replica labels which replica of
// the slice this instance is: replicas of one slice build identical
// partitions (same sf/seed/shard), so the router can hedge requests
// across them and merge whichever answers first.
//
// With -adapt, columns are hardened at the weakest published code and a
// background controller re-hardens them while queries keep running,
// holding the per-column silent-corruption hazard under -adapt-target;
// GET /adapt/status and POST /adapt/policy expose the loop over HTTP.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ahead/internal/adapt"
	"ahead/internal/cluster"
	"ahead/internal/exec"
	"ahead/internal/faults"
	"ahead/internal/server"
	"ahead/internal/ssb"
	"ahead/internal/storage"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		sf           = flag.Float64("sf", 0.01, "SSB scale factor")
		seed         = flag.Int64("seed", 1, "data-generation seed")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "morsel-pool fan-out: each kernel's morsels run on at most this many goroutines; total CPU stays bounded by GOMAXPROCS (0 = serial)")
		maxInFlight  = flag.Int("max-inflight", 8, "concurrently executing queries")
		maxQueue     = flag.Int("max-queue", 64, "bounded wait queue before 429")
		queueTimeout = flag.Duration("queue-timeout", time.Second, "max wait for an execution slot")
		deadline     = flag.Duration("deadline", 10*time.Second, "default per-query deadline")
		maxDeadline  = flag.Duration("max-deadline", 60*time.Second, "cap on requested deadlines")
		injectSeed   = flag.Int64("inject-seed", 0, "enable POST /inject with this fault seed (0 = disabled)")
		drainWait    = flag.Duration("drain", 30*time.Second, "max graceful-drain wait on SIGTERM")
		shardSpec    = flag.String("shard", "", "serve one shard of a cluster, 1-based \"i/n\" (e.g. 2/3); empty = single node")
		replica      = flag.Int("replica", 0, "replica index of this shard's slice (0-based, informational)")
		snapshotDir  = flag.String("snapshot-dir", "", "write a chunked hardened snapshot of every table here at boot and register it as a repair source")
		dropPlain    = flag.Bool("drop-plain-repair", false, "remove the in-process plain mirror from the repair chain; repairs must come from -snapshot-dir or a peer (frees no memory: Unprotected, DMR and the dictionaries still read the plain tables)")
		adaptOn      = flag.Bool("adapt", false, "enable online adaptive hardening: columns start at the weakest published code and a background controller re-hardens them under observed fault traffic")
		adaptTarget  = flag.Float64("adapt-target", 1e-4, "silent-corruption hazard bound the controller holds per column (with -adapt)")
		adaptEvery   = flag.Duration("adapt-interval", 5*time.Second, "controller tick interval (with -adapt)")
		adaptResidue = flag.Bool("adapt-residue", false, "let the controller demote cold columns to cheap residue sidecars (with -adapt)")
	)
	flag.Parse()

	shard, err := cluster.ParseShard(*shardSpec)
	if err != nil {
		log.Fatalf("parse -shard: %v", err)
	}
	if *replica < 0 {
		log.Fatalf("-replica must be >= 0, got %d", *replica)
	}
	if *adaptOn {
		if *adaptTarget <= 0 || *adaptTarget > 1 {
			log.Fatalf("-adapt-target must be in (0, 1], got %g", *adaptTarget)
		}
		if *adaptEvery <= 0 {
			log.Fatalf("-adapt-interval must be positive, got %v", *adaptEvery)
		}
	}

	// Under -adapt every column starts at the weakest published code
	// (min bit-flip weight 1) so the controller has a ladder to climb;
	// otherwise the Section 6.2 default (largest super A per width).
	chooser := storage.LargestCodeChooser
	if *adaptOn {
		chooser = storage.MinBFWCodeChooser(1)
	}

	log.Printf("generating SSB at SF %g (seed %d, shard %s, replica %d)...", *sf, *seed, shard, *replica)
	start := time.Now()
	suite, data, err := ssb.NewShardSuite(*sf, *seed, 1, shard, chooser)
	if err != nil {
		log.Fatalf("build database: %v", err)
	}
	log.Printf("database ready in %v (%d lineorder rows)", time.Since(start).Round(time.Millisecond), data.Lineorder.Rows())

	if *snapshotDir != "" {
		snapStart := time.Now()
		if err := suite.DB.SaveSnapshot(*snapshotDir); err != nil {
			log.Fatalf("write snapshot to %s: %v", *snapshotDir, err)
		}
		src := exec.NewSnapshotRepairSource(*snapshotDir)
		defer src.Close()
		suite.DB.RegisterRepairSource(src)
		log.Printf("snapshot written to %s in %v (registered as repair source)", *snapshotDir, time.Since(snapStart).Round(time.Millisecond))
	}
	if *dropPlain {
		suite.DB.DropPlainRepair()
		log.Printf("plain mirror removed from the repair chain; repairs served by %d registered source(s)", len(suite.DB.RepairSources()))
	}

	var pool *exec.Pool
	if *workers > 0 {
		pool = exec.NewPool(*workers)
		defer pool.Close()
	}
	cfg := server.Config{
		DB:              suite.DB,
		Pool:            pool,
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		QueueTimeout:    *queueTimeout,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		Shard:           shard,
		Replica:         *replica,
	}
	if *injectSeed != 0 {
		cfg.Injector = faults.NewInjector(*injectSeed)
		log.Printf("fault injection enabled (seed %d)", *injectSeed)
	}
	adaptCtx, adaptCancel := context.WithCancel(context.Background())
	defer adaptCancel()
	if *adaptOn {
		pol := adapt.DefaultPolicy()
		pol.TargetRate = *adaptTarget
		pol.AllowResidue = *adaptResidue
		mgr := adapt.NewManager(suite.DB, pol)
		cfg.Adapt = mgr
		go mgr.Run(adaptCtx, *adaptEvery)
		log.Printf("adaptive hardening enabled (target %g, interval %v, residue %v)",
			*adaptTarget, *adaptEvery, *adaptResidue)
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("configure server: %v", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("serving on %s (inflight %d, queue %d)", *addr, *maxInFlight, *maxQueue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatalf("listen: %v", err)
	case got := <-sig:
		log.Printf("%v: draining (up to %v)...", got, *drainWait)
	}

	adaptCancel() // stop background re-hardening before the drain
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	fmt.Println("bye")
}
