// Package bench defines the evaluation harness: one experiment per table
// and figure of the paper-style evaluation, all driven through a
// memoizing runner so that figures sharing the same simulations (e.g. the
// performance figure and the traffic-breakdown figure) pay for each run
// once.
package bench

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"

	"cachecraft/internal/config"
	"cachecraft/internal/core"
	"cachecraft/internal/gpu"
	"cachecraft/internal/obs"
	"cachecraft/internal/protect"
	"cachecraft/internal/schemes"
)

// Spec names one simulation: a configuration (identified by CfgID because
// config.GPU is not comparable), a workload, and a scheme variant.
type Spec struct {
	CfgID    string
	Workload string
	Variant  string
}

// call is one in-flight or completed simulation (singleflight slot).
// Waiters block on done; res/err are immutable once done is closed.
type call struct {
	done chan struct{}
	res  gpu.Result
	err  error
}

// errAbandoned marks a call whose leader was cancelled before the
// simulation started; waiters observing it retry with their own context.
var errAbandoned = errors.New("bench: in-flight simulation abandoned")

// ResultStore is the persistence hook beneath the runner: a durable
// result cache consulted after the in-memory memo misses and populated
// after each successful simulation (check store → singleflight →
// simulate → persist). *store.Store implements it; tests may substitute
// stubs. Implementations must be safe for concurrent use and must treat
// any unreadable or stale entry as a miss.
type ResultStore interface {
	Lookup(cfg config.GPU, workload, scheme string) (gpu.Result, bool)
	Save(cfg config.GPU, workload, scheme string, res gpu.Result) error
}

// Remote is the distributed-execution hook beneath the runner: a backend
// (typically a cluster coordinator, see internal/cluster) that
// materializes a cell on another machine. It is consulted after the memo
// and the persistent store both miss, and only for cells it declares
// expressible via Can — custom scheme variants registered as in-process
// factories cannot travel over the wire and always simulate locally.
// A remote failure falls back to local simulation, so attaching a remote
// never changes results, only where they are computed. Implementations
// must be safe for concurrent use.
type Remote interface {
	// Can reports whether the backend can materialize the given
	// (workload, scheme) pair. Configurations always travel (they are
	// shipped in full), so expressibility depends only on the names.
	Can(workload, scheme string) bool
	// Run materializes one cell remotely.
	Run(ctx context.Context, cfg config.GPU, workload, scheme string) (gpu.Result, error)
}

// Stats is a snapshot of the runner's accounting.
type Stats struct {
	Runs         int // simulations actually executed (successfully)
	MemoHits     int // requests answered from the in-memory memo
	Dedups       int // requests that piggybacked on an in-flight simulation
	StoreHits    int // requests answered from the persistent store
	StoreMisses  int // persistent-store lookups that missed
	StoreErrors  int // failed persist attempts (results still returned)
	RemoteHits   int // requests materialized by the remote backend
	RemoteErrors int // remote attempts that failed and fell back to local
	Started      int // ResultCtx calls begun (cells requested)
	Finished     int // ResultCtx calls returned, any outcome
}

// Runner executes simulations on demand, memoizes results, and bounds
// concurrent execution with a worker-slot semaphore. Concurrent requests
// for the same Spec are deduplicated (singleflight): the first request
// runs the simulation while the rest block on the in-flight call and
// share its result, so a parallel fan-out never races or duplicates work.
// With SetStore, results additionally persist across processes: a miss in
// the memo falls through to the store before simulating, and every fresh
// simulation is written back, so a warm re-run performs zero simulations.
type Runner struct {
	mu      sync.Mutex
	memo    map[Spec]*call
	configs map[string]config.GPU
	facts   map[string]protect.Factory
	store   ResultStore   // optional durable tier (nil = disabled)
	remote  Remote        // optional distributed tier (nil = disabled)
	tracer  *obs.Tracer   // optional span tracing (nil = off, zero cost)
	audit   bool          // run simulations under the invariant checker
	prWin   uint64        // probe sampling window (0 = probes off)
	prSink  ProbeSink     // receives each executed simulation's probes
	stat    Stats         // counters; stat.Runs mirrors Runs()
	slots   chan struct{} // bounded worker slots
}

// NewRunner builds a runner seeded with the base configuration under id
// "base" and the four standard scheme variants. The worker pool defaults
// to runtime.NumCPU() concurrent simulations; see SetWorkers.
func NewRunner(base config.GPU) *Runner {
	r := &Runner{
		memo:    make(map[Spec]*call),
		configs: map[string]config.GPU{"base": base},
		facts:   make(map[string]protect.Factory),
		slots:   make(chan struct{}, runtime.NumCPU()),
	}
	for _, s := range schemes.Names() {
		f, err := schemes.ByName(s)
		if err != nil {
			panic(err) // statically impossible: Names() lists registered schemes
		}
		r.facts[s] = f
	}
	return r
}

// SetWorkers bounds the number of simulations executing at once (n < 1 is
// clamped to 1). Call it before fanning work out; simulations already in
// flight keep the slot they hold.
func (r *Runner) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slots = make(chan struct{}, n)
}

// Workers reports the current worker-pool bound.
func (r *Runner) Workers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return cap(r.slots)
}

// SetStore attaches a durable result store beneath the memo (nil detaches
// it). Attach it before fanning work out; in-flight simulations persist
// only if the store was attached when they were requested.
func (r *Runner) SetStore(s ResultStore) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = s
}

// SetRemote attaches a distributed-execution backend beneath the memo and
// store (nil detaches it). Cells the backend can express are fetched from
// it instead of simulating locally; inexpressible cells and remote
// failures simulate locally as before, so results are identical either
// way. Attach it before fanning work out; in-flight cells use whatever
// was attached when they were requested.
func (r *Runner) SetRemote(rem Remote) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.remote = rem
}

// SetTracer attaches span tracing to the runner (nil detaches it). Each
// simulation that actually executes emits a "cell" span with store-lookup,
// queue-wait, simulate, and persist children; memo hits and singleflight
// waiters emit nothing. With no tracer the hot path pays only nil checks.
func (r *Runner) SetTracer(t *obs.Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracer = t
}

// ProbeSink receives the probe set of one executed simulation, after
// the run finished and the probes were flushed. Sinks run on the
// simulation's goroutine and must be safe for concurrent use when the
// runner fans out (obs.Timeline.AddCell qualifies).
type ProbeSink func(s Spec, p *obs.Probes)

// SetProbes attaches the time-resolved probe layer to every subsequent
// simulation that actually executes: each run gets a fresh obs.Probes
// sampling at the given window, and sink receives it after the run
// succeeds. Memo, store, and remote hits carry no probes — like span
// tracing, probes describe work this process performed. Probes observe
// without scheduling engine events, so results (and the sweep's stdout)
// are byte-identical with probes on or off. A nil sink (or zero window)
// detaches the layer.
func (r *Runner) SetProbes(window uint64, sink ProbeSink) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sink == nil || window == 0 {
		r.prWin, r.prSink = 0, nil
		return
	}
	r.prWin, r.prSink = window, sink
}

// SetAudit runs every subsequent simulation under the invariant-audit
// layer (internal/audit): a run that violates a simulation invariant
// fails with an audit error instead of returning a result. Auditing
// changes no simulated timing — results are identical either way — so
// memoized and stored results remain valid when toggling it. Store hits
// and memo hits are served without re-simulating and are therefore not
// re-audited.
func (r *Runner) SetAudit(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.audit = on
}

// Stats returns a snapshot of the runner's accounting: executed
// simulations, memo hits, singleflight dedups, and store traffic.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stat
}

// AddConfig registers a configuration variant (sensitivity sweeps).
// Re-registering an id with a different configuration invalidates every
// memoized result keyed by that id, so later Result calls simulate the
// new configuration instead of silently replaying the old one.
// Re-registering the identical configuration keeps the memo intact.
func (r *Runner) AddConfig(id string, cfg config.GPU) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.configs[id]; ok && !reflect.DeepEqual(old, cfg) {
		for s := range r.memo {
			if s.CfgID == id {
				delete(r.memo, s)
			}
		}
	}
	r.configs[id] = cfg
}

// AddVariant registers a scheme variant (ablations) under the given name.
// Factories are not comparable, so unlike AddConfig this cannot detect a
// semantically different re-registration; register distinct variants
// under distinct names.
func (r *Runner) AddVariant(name string, f protect.Factory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.facts[name] = f
}

// AddCacheCraftVariant registers a CacheCraft ablation variant.
func (r *Runner) AddCacheCraftVariant(name string, opt core.Options) {
	r.AddVariant(name, schemes.CacheCraftWith(opt))
}

// Result runs (or replays) one simulation.
func (r *Runner) Result(s Spec) (gpu.Result, error) {
	return r.ResultCtx(context.Background(), s)
}

// ResultCtx runs (or replays) one simulation, honouring ctx while waiting
// for a worker slot or for another goroutine's in-flight run of the same
// Spec. A simulation that has already started is never interrupted: its
// result stays useful for the memo even if this caller gives up.
func (r *Runner) ResultCtx(ctx context.Context, s Spec) (gpu.Result, error) {
	r.mu.Lock()
	r.stat.Started++
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.stat.Finished++
		r.mu.Unlock()
	}()
	for {
		r.mu.Lock()
		if c, ok := r.memo[s]; ok {
			select {
			case <-c.done:
				r.stat.MemoHits++
			default:
				r.stat.Dedups++
			}
			r.mu.Unlock()
			select {
			case <-c.done:
				if errors.Is(c.err, errAbandoned) {
					continue // leader was cancelled before running; retry
				}
				return c.res, c.err
			case <-ctx.Done():
				return gpu.Result{}, ctx.Err()
			}
		}
		cfg, okC := r.configs[s.CfgID]
		f, okF := r.facts[s.Variant]
		if !okC {
			r.mu.Unlock()
			return gpu.Result{}, fmt.Errorf("bench: unknown config %q", s.CfgID)
		}
		if !okF {
			r.mu.Unlock()
			return gpu.Result{}, fmt.Errorf("bench: unknown variant %q", s.Variant)
		}
		c := &call{done: make(chan struct{})}
		r.memo[s] = c
		st := r.store
		rem := r.remote
		slots := r.slots
		tr := r.tracer
		aud := r.audit
		prWin, prSink := r.prWin, r.prSink
		r.mu.Unlock()
		return r.lead(ctx, s, c, cfg, f, st, rem, slots, tr, aud, prWin, prSink)
	}
}

// lead is the singleflight leader's path: consult the store, wait for a
// worker slot, simulate, persist. When a tracer is attached it wraps the
// whole cell in a span with one child per phase, so a trace shows exactly
// where a cell's wall time went.
func (r *Runner) lead(ctx context.Context, s Spec, c *call, cfg config.GPU,
	f protect.Factory, st ResultStore, rem Remote, slots chan struct{}, tr *obs.Tracer, aud bool,
	prWin uint64, prSink ProbeSink) (gpu.Result, error) {
	ctx, cell := tr.Start(ctx, "cell",
		obs.String("config", s.CfgID),
		obs.String("workload", s.Workload),
		obs.String("scheme", s.Variant))
	defer cell.End()

	// Durable tier: a store hit satisfies the call (and everyone
	// singleflighted onto it) without consuming a worker slot.
	if st != nil {
		_, lk := tr.Start(ctx, "store-lookup")
		res, ok := st.Lookup(cfg, s.Workload, s.Variant)
		lk.SetAttr(obs.Bool("hit", ok))
		lk.End()
		if ok {
			r.mu.Lock()
			r.stat.StoreHits++
			r.mu.Unlock()
			cell.SetAttr(obs.String("outcome", "store-hit"))
			r.finish(s, c, res, nil, false)
			return res, nil
		}
		r.mu.Lock()
		r.stat.StoreMisses++
		r.mu.Unlock()
	}

	// Distributed tier: an expressible cell is fetched from the remote
	// backend — like a store hit, it satisfies the call (and everyone
	// singleflighted onto it) without consuming a local worker slot. The
	// fetched result is persisted locally so the next cold process skips
	// both the simulation and the network. A remote failure is recorded
	// and the cell falls through to local simulation.
	if rem != nil && rem.Can(s.Workload, s.Variant) {
		_, rs := tr.Start(ctx, "remote")
		res, err := rem.Run(ctx, cfg, s.Workload, s.Variant)
		rs.SetAttr(obs.Bool("ok", err == nil))
		rs.End()
		if err == nil {
			r.mu.Lock()
			r.stat.RemoteHits++
			r.mu.Unlock()
			if st != nil {
				if perr := st.Save(cfg, s.Workload, s.Variant, res); perr != nil {
					r.mu.Lock()
					r.stat.StoreErrors++
					r.mu.Unlock()
				}
			}
			cell.SetAttr(obs.String("outcome", "remote"))
			r.finish(s, c, res, nil, false)
			return res, nil
		}
		if ctx.Err() != nil {
			cell.SetAttr(obs.String("outcome", "abandoned"))
			r.finish(s, c, gpu.Result{}, errAbandoned, false)
			return gpu.Result{}, ctx.Err()
		}
		r.mu.Lock()
		r.stat.RemoteErrors++
		r.mu.Unlock()
	}

	// Check cancellation before racing for a slot: with both a free
	// slot and a done context ready, select would choose arbitrarily.
	if err := ctx.Err(); err != nil {
		cell.SetAttr(obs.String("outcome", "abandoned"))
		r.finish(s, c, gpu.Result{}, errAbandoned, false)
		return gpu.Result{}, err
	}
	_, qw := tr.Start(ctx, "queue-wait")
	select {
	case slots <- struct{}{}:
		qw.End()
	case <-ctx.Done():
		qw.SetAttr(obs.Bool("cancelled", true))
		qw.End()
		cell.SetAttr(obs.String("outcome", "abandoned"))
		r.finish(s, c, gpu.Result{}, errAbandoned, false)
		return gpu.Result{}, ctx.Err()
	}
	// With a tracer attached, the machine emits spans for its top-level
	// stages (execute, drain) as children of the simulate span.
	simCtx, sim := tr.Start(ctx, "simulate")
	o := gpu.Observers{Audit: aud, Tracer: tr}
	if prSink != nil {
		o.Probes = obs.NewProbes(prWin)
	}
	res, err := gpu.Simulate(simCtx, cfg, s.Workload, s.Variant, f, o)
	if err != nil {
		err = fmt.Errorf("bench: %s/%s/%s: %w", s.CfgID, s.Workload, s.Variant, err)
	} else if prSink != nil {
		prSink(s, o.Probes)
	}
	sim.SetAttr(obs.Bool("ok", err == nil))
	sim.End()
	<-slots
	if err == nil && st != nil {
		// Persist best-effort: a full disk must not fail the caller,
		// but it is counted so operators can see the store is dark.
		_, ps := tr.Start(ctx, "persist")
		perr := st.Save(cfg, s.Workload, s.Variant, res)
		ps.SetAttr(obs.Bool("ok", perr == nil))
		ps.End()
		if perr != nil {
			r.mu.Lock()
			r.stat.StoreErrors++
			r.mu.Unlock()
		}
	}
	cell.SetAttr(obs.String("outcome", outcomeOf(err)))
	r.finish(s, c, res, err, true)
	return res, err
}

func outcomeOf(err error) string {
	if err != nil {
		return "error"
	}
	return "run"
}

// finish publishes a call's outcome. Failed or abandoned calls are
// removed from the memo (if still current) so a later request retries.
// ran distinguishes an executed simulation from a store hit, which
// completes the call without counting as a run.
func (r *Runner) finish(s Spec, c *call, res gpu.Result, err error, ran bool) {
	r.mu.Lock()
	c.res, c.err = res, err
	if err != nil {
		if r.memo[s] == c {
			delete(r.memo, s)
		}
	} else if ran {
		r.stat.Runs++
	}
	r.mu.Unlock()
	close(c.done)
}

// Prefetch fans the given specs out across the worker pool and blocks
// until every one has completed. Duplicate specs (and specs another
// caller is already running) collapse onto a single simulation. The
// first failure cancels the batch's still-queued work and is returned;
// completed results stay memoized either way, so subsequent Result calls
// for the survivors are cache hits.
func (r *Runner) Prefetch(ctx context.Context, specs []Spec) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for _, s := range specs {
		wg.Add(1)
		go func(s Spec) {
			defer wg.Done()
			if _, err := r.ResultCtx(ctx, s); err != nil && !errors.Is(err, context.Canceled) {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}(s)
	}
	wg.Wait()
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// MustResult is Result for experiment code where configuration and
// variants are statically registered; it panics on error.
func (r *Runner) MustResult(s Spec) gpu.Result {
	res, err := r.Result(s)
	if err != nil {
		panic(err)
	}
	return res
}

// Runs reports how many distinct simulations have completed successfully.
// Store hits do not count: they answer requests without simulating.
func (r *Runner) Runs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stat.Runs
}

// StandardSchemes lists the four evaluation schemes in order.
func StandardSchemes() []string { return schemes.All() }

// TotalDRAMBytes sums a result's traffic classes.
func TotalDRAMBytes(res gpu.Result) uint64 {
	var total uint64
	for _, v := range res.DRAMBytes {
		total += v
	}
	return total
}

// sortedKeys returns map keys in sorted order (deterministic rendering).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
