// cachecraft-serve runs the simulation harness as a long-running HTTP
// service with a persistent, content-addressed result cache: repeat
// requests for a simulation that has already run — in this process or any
// earlier one sharing -store — are answered from the cache without
// simulating.
//
// Usage:
//
//	cachecraft-serve -addr :8344 -store /var/tmp/cachecraft
//	cachecraft-serve -quick -j 4 -max-inflight 8
//	cachecraft-serve -quick -debug-addr 127.0.0.1:6060   # pprof, /metrics, /healthz side listener
//	cachecraft-serve -coordinator -store /var/tmp/cachecraft   # sweep cluster head
//
// Endpoints: POST /v1/simulate, POST /v1/sweep (NDJSON stream),
// GET /v1/results/{fingerprint} (ETag/If-None-Match), GET /healthz,
// GET /metrics. Saturation (beyond -max-inflight running plus -queue
// waiting) returns 429 with a Retry-After header. Each response carries
// an X-Request-Id (echoed if the client sent one) that also appears in
// the structured access log on stderr. SIGINT/SIGTERM drains gracefully:
// the listener closes, in-flight requests finish (up to -drain), then the
// process exits after logging a final summary taken from the same metrics
// registry /metrics serves.
//
// With -coordinator the server additionally mounts the cluster control
// plane (POST /v1/cluster/sweep streaming the same NDJSON format as
// /v1/sweep, plus /v1/cluster/lease, /complete, /heartbeat) and shards
// submitted grids across cachecraft-worker processes with leases,
// lease expiry, and retries with backoff; see docs/CLUSTER.md. With
// -store-max-bytes the result store is pruned (oldest records first)
// once a minute so long-running deployments don't grow disks unboundedly.
//
// Robustness knobs (docs/CLUSTER.md, "Failure modes & recovery"):
// -journal points the coordinator at an append-only crash-recovery log —
// kill -9 the process mid-sweep, restart it with the same -journal, and
// resubmitted sweeps resume with every already-finished cell answered
// from the journal, byte-identical. -quarantine-after pulls poison cells
// (ones that keep killing workers) out of circulation. -breaker-threshold
// / -breaker-cooldown govern the store's circuit breaker: a sick disk
// degrades the store to compute-only instead of failing sweeps. -chaos
// injects deterministic faults for drills; never set it in production.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
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
	"cachecraft/internal/serve"
	"cachecraft/internal/store"
	"cachecraft/internal/version"
)

func main() {
	var (
		addr      = flag.String("addr", ":8344", "listen address")
		storeDir  = flag.String("store", "", "persistent result store directory (empty = in-memory only)")
		quick     = flag.Bool("quick", false, "use the scaled-down configuration (fast, not meaningful)")
		jobs      = flag.Int("j", runtime.NumCPU(), "max simulations running concurrently")
		inflight  = flag.Int("max-inflight", runtime.NumCPU(), "max simulation-bearing requests in flight before queueing")
		queue     = flag.Int("queue", 0, "max queued requests beyond -max-inflight before 429 (0 = 2x max-inflight)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown grace period")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof, /metrics, and /healthz on this extra address (empty = off)")
		quiet     = flag.Bool("quiet", false, "suppress per-request access logs")

		coordinator = flag.Bool("coordinator", false, "mount the sweep-cluster control plane (/v1/cluster/*)")
		leaseTTL    = flag.Duration("lease-ttl", 15*time.Second, "coordinator: lease lifetime without a heartbeat")
		retryBudget = flag.Int("retry-budget", 5, "coordinator: dispatch attempts per cell before terminal failure")
		storeMax    = flag.Int64("store-max-bytes", 0, "prune the store's oldest records beyond this many bytes (0 = unbounded)")

		journalPath = flag.String("journal", "", "coordinator: crash-recovery sweep journal file (empty = no journal)")
		quarantine  = flag.Int("quarantine-after", 3, "coordinator: consecutive crash-like failures before a cell is quarantined as poison")
		brkThresh   = flag.Int("breaker-threshold", 8, "store: consecutive I/O errors before the circuit breaker opens (0 = breaker off)")
		brkCooldown = flag.Duration("breaker-cooldown", 3*time.Second, "store: how long the breaker stays open before probing the disk again")
		chaosSpec   = flag.String("chaos", "", "fault-injection spec, e.g. 'seed=7;store.put:error:0.1;serve.request:latency:0.05,delay=20ms' (testing only)")
	)
	flag.Parse()
	log.SetPrefix("cachecraft-serve: ")
	log.SetFlags(log.LstdFlags)

	base := config.Default()
	if *quick {
		base = config.Quick()
	}
	r := bench.NewRunner(base)
	r.SetWorkers(*jobs)

	inj, err := chaos.ParseSpec(*chaosSpec)
	if err != nil {
		log.Fatal(err)
	}
	if inj != nil {
		log.Printf("CHAOS ENABLED (seed=%d): faults will be injected on purpose", inj.Seed())
	}

	// One registry for the whole process: the HTTP layer and (in
	// coordinator mode) the cluster share a /metrics exposition.
	reg := obs.NewRegistry()
	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir); err != nil {
			log.Fatal(err)
		}
		log.Printf("result store at %s", st.Dir())
		st.SetChaos(inj)
		if *brkThresh > 0 {
			st.SetBreaker(*brkThresh, *brkCooldown)
			bench.RegisterStoreMetrics(reg, st)
		}
		stop := st.StartAutoPrune(*storeMax, time.Minute, log.Printf)
		defer stop()
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	var accessLog *slog.Logger
	if !*quiet {
		accessLog = logger
	}
	var co *cluster.Coordinator
	if *coordinator {
		var jnl *cluster.Journal
		if *journalPath != "" {
			if jnl, err = cluster.OpenJournal(*journalPath); err != nil {
				log.Fatal(err)
			}
			defer jnl.Close()
			log.Printf("sweep journal at %s (%d entries replayed, %d torn/corrupt lines skipped)",
				jnl.Path(), len(jnl.Replayed()), jnl.Skipped())
		}
		co = cluster.New(cluster.Options{
			Base:            base,
			Store:           st,
			Registry:        reg,
			LeaseTTL:        *leaseTTL,
			MaxAttempts:     *retryBudget,
			QuarantineAfter: *quarantine,
			Journal:         jnl,
			Logger:          logger,
		})
		defer co.Close()
		log.Printf("coordinator mode: lease-ttl=%s retry-budget=%d quarantine-after=%d",
			*leaseTTL, *retryBudget, *quarantine)
	}
	srv := serve.New(serve.Options{
		Base:        base,
		Runner:      r,
		Store:       st,
		MaxInFlight: *inflight,
		MaxQueue:    *queue,
		Registry:    reg,
		Logger:      accessLog,
		Coordinator: co,
		Chaos:       inj,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	if *debugAddr != "" {
		debugsrv.Serve(*debugAddr, reg)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("signal received; draining for up to %s", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("drain incomplete: %v", err)
			hs.Close()
		}
	}()

	log.Printf("%s listening on %s (workers=%d, max-inflight=%d)", version.String(), *addr, *jobs, *inflight)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// The shutdown summary is a snapshot of the same registry /metrics
	// renders, so the two can never disagree about what this process did.
	snap := srv.Registry().Snapshot()
	attrs := make([]slog.Attr, 0, 8)
	for _, name := range snap.Names() {
		attrs = append(attrs, slog.Uint64(name, snap.Get(name)))
	}
	logger.LogAttrs(context.Background(), slog.LevelInfo, "drained", attrs...)
}
