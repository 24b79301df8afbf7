// cachecraft-worker is the pull side of the sweep cluster: it polls a
// coordinator (cachecraft-serve -coordinator) for leases — batches of
// fingerprint-keyed simulation cells — runs them through a local
// bench.Runner, pushes each result back the moment it finishes, and
// heartbeats to keep its leases alive. An idle worker waits inside its
// poll: the coordinator holds an empty poll open for up to a second and
// answers as soon as a cell is queued, so the worker needs no poll
// interval of its own. Kill a worker at any point: its
// leases expire, the coordinator re-queues the unfinished cells, and the
// surviving workers pick them up. See docs/CLUSTER.md.
//
// Usage:
//
//	cachecraft-worker -coordinator http://host:8344
//	cachecraft-worker -coordinator http://host:8344 -j 8 -store /var/tmp/cachecraft -store-max-bytes 1073741824
//	cachecraft-worker -coordinator http://host:8344 -name rack3-gpu0 -audit
//	cachecraft-worker -coordinator http://host:8344 -debug-addr 127.0.0.1:6061
//
// Cells carry their full GPU configuration, so a worker needs no
// agreement with the coordinator beyond the simulator revision (enforced
// at lease time — a mismatched worker exits rather than poison the
// content-addressed store). A local -store lets a worker answer
// re-leased cells from disk without re-simulating, and -store-max-bytes
// keeps that cache from growing without bound.
//
// -debug-addr opens a side listener with net/http/pprof, the worker's
// own /metrics exposition (the same runner families cachecraft-serve
// reports), and /healthz. The same metric snapshot also rides every
// lease poll and heartbeat, so the coordinator's /metrics re-exports it
// per worker even when the debug listener is off.
//
// Start order does not matter: the worker waits for the coordinator
// with capped backoff (bounded by -startup-timeout, default forever),
// so workers may be launched first or survive a coordinator restart.
// -chaos injects deterministic faults (crashes, partitions, latency)
// for recovery drills; never set it in production.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"cachecraft/internal/bench"
	"cachecraft/internal/chaos"
	"cachecraft/internal/cluster"
	"cachecraft/internal/config"
	"cachecraft/internal/debugsrv"
	"cachecraft/internal/obs"
	"cachecraft/internal/store"
	"cachecraft/internal/version"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "", "coordinator base URL (required), e.g. http://host:8344")
		name        = flag.String("name", "", "worker name for leases and metrics (default <hostname>-<pid>)")
		jobs        = flag.Int("j", runtime.NumCPU(), "max simulations running concurrently")
		batch       = flag.Int("batch", 0, "max cells per lease (0 = same as -j)")
		storeDir    = flag.String("store", "", "local persistent result store directory (empty = none)")
		storeMax    = flag.Int64("store-max-bytes", 0, "prune the local store's oldest records beyond this many bytes (0 = unbounded)")
		auditOn     = flag.Bool("audit", false, "run every simulation under the invariant-audit layer")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof, /metrics, and /healthz on this extra address (empty = off)")
		quiet       = flag.Bool("quiet", false, "suppress per-lease progress logs")
		startupWait = flag.Duration("startup-timeout", 0, "max time to wait for the coordinator to come up (0 = wait forever)")
		chaosSpec   = flag.String("chaos", "", "fault-injection spec, e.g. 'seed=7;worker.exec:crash:0.05;worker.complete:partition:0.1' (testing only)")
	)
	flag.Parse()
	log.SetPrefix("cachecraft-worker: ")
	log.SetFlags(log.LstdFlags)
	if *coordinator == "" {
		log.Fatal("-coordinator is required")
	}

	// The base config is a placeholder: leased cells register their own
	// configuration under their fingerprint before running.
	r := bench.NewRunner(config.Default())
	r.SetWorkers(*jobs)
	r.SetAudit(*auditOn)
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		r.SetStore(st)
		log.Printf("local result store at %s", st.Dir())
		stop := st.StartAutoPrune(*storeMax, time.Minute, log.Printf)
		defer stop()
	}

	// The registry backs both the -debug-addr /metrics exposition and the
	// snapshots attached to every lease poll and heartbeat, which the
	// coordinator re-exports under per-worker-labelled families.
	reg := obs.NewRegistry()
	bench.RegisterRunnerMetrics(reg, r)

	inj, err := chaos.ParseSpec(*chaosSpec)
	if err != nil {
		log.Fatal(err)
	}
	if inj != nil {
		log.Printf("CHAOS ENABLED (seed=%d): faults will be injected on purpose", inj.Seed())
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		Coordinator: *coordinator,
		Name:        *name,
		Runner:      r,
		Batch:       *batch,
		Registry:    reg,
		Logger:      logger,
		Chaos:       inj,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *debugAddr != "" {
		debugsrv.Serve(*debugAddr, reg)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Wait out a coordinator that is not up yet: fleet bring-up has no
	// ordering constraint, and a worker that outlives a coordinator
	// restart re-enters the same loop via its lease polls.
	waitCtx := ctx
	if *startupWait > 0 {
		var cancel context.CancelFunc
		waitCtx, cancel = context.WithTimeout(ctx, *startupWait)
		defer cancel()
	}
	if err := cluster.AwaitCoordinator(waitCtx, cluster.NewClient(*coordinator), log.Printf); err != nil {
		if errors.Is(err, context.Canceled) {
			return
		}
		log.Fatal(err)
	}

	log.Printf("%s worker %q polling %s (workers=%d)", version.String(), w.Name(), *coordinator, *jobs)
	err = w.Run(ctx)
	switch {
	case errors.Is(err, context.Canceled):
		st := r.Stats()
		log.Printf("signal received; exiting (ran %d sims, %d store hits, %d memo hits)",
			st.Runs, st.StoreHits, st.MemoHits)
	case err != nil:
		log.Fatal(err)
	}
}
