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
// result cache, the chain's first tier, consulted after the in-memory
// memo misses and populated with every result a lower tier produces
// (remote fetch or simulation). *store.Store implements it; tests may substitute
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
// Beneath the memo sits one ordered chain of result tiers — the durable
// store (SetStore), the remote backend (SetRemote), then local
// simulation — and the first tier that produces a result finishes the
// call. Results from below the store are written back to it, so a warm
// re-run performs zero simulations.
type Runner struct {
	mu      sync.Mutex
	memo    map[Spec]*call
	configs map[string]config.GPU
	facts   map[string]protect.Factory
	store   ResultStore // optional durable tier (nil = disabled)
	remote  Remote      // optional distributed tier (nil = disabled)
	ch      chain       // what each leader snapshots; tiers rebuilt by SetStore/SetRemote
	stat    Stats       // counters, read through Stats
}

// tier is one source in the runner's result chain: the durable store,
// the remote backend, or — with neither set — local simulation, which is
// always the chain's last tier.
type tier struct {
	store  ResultStore
	remote Remote
}

// chain is everything a leader needs beyond its cell, snapshotted as one
// value when the call begins: the ordered tiers and the settings of the
// local tier. Setters replace fields (and SetStore/SetRemote the tiers
// slice) rather than mutate shared state, so a snapshot never changes
// under an in-flight call.
type chain struct {
	tiers  []tier
	slots  chan struct{} // bounded worker slots
	tracer *obs.Tracer   // optional span tracing (nil = off, zero cost)
	audit  bool          // run simulations under the invariant checker
	prWin  uint64        // probe sampling window (0 = probes off)
	prSink ProbeSink     // receives each executed simulation's probes
}

// job is the cell a leader materializes: its Spec and what the Spec
// resolved to when the call began.
type job struct {
	s   Spec
	cfg config.GPU
	f   protect.Factory
}

// errMiss is a tier's answer when it cannot produce a cell; the leader
// moves on to the next tier.
var errMiss = errors.New("bench: tier miss")

// NewRunner builds a runner seeded with the base configuration under id
// "base" and the four standard scheme variants. The worker pool defaults
// to runtime.NumCPU() concurrent simulations; see SetWorkers.
func NewRunner(base config.GPU) *Runner {
	r := &Runner{
		memo:    make(map[Spec]*call),
		configs: map[string]config.GPU{"base": base},
		facts:   make(map[string]protect.Factory),
		ch:      chain{tiers: []tier{{}}, slots: make(chan struct{}, runtime.NumCPU())},
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
	r.ch.slots = make(chan struct{}, n)
}

// Workers reports the current worker-pool bound.
func (r *Runner) Workers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return cap(r.ch.slots)
}

// SetStore attaches a durable result store beneath the memo (nil detaches
// it). Attach it before fanning work out; in-flight simulations persist
// only if the store was attached when they were requested.
func (r *Runner) SetStore(s ResultStore) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = s
	r.buildTiers()
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
	r.buildTiers()
}

// buildTiers orders the chain store → remote → local simulation. It
// allocates a fresh slice, so calls holding the old snapshot keep it.
func (r *Runner) buildTiers() {
	tiers := make([]tier, 0, 3)
	if r.store != nil {
		tiers = append(tiers, tier{store: r.store})
	}
	if r.remote != nil {
		tiers = append(tiers, tier{remote: r.remote})
	}
	r.ch.tiers = append(tiers, tier{})
}

// SetTracer attaches span tracing to the runner (nil detaches it). Each
// simulation that actually executes emits a "cell" span with store-lookup,
// queue-wait, simulate, and persist children; memo hits and singleflight
// waiters emit nothing. With no tracer the hot path pays only nil checks.
func (r *Runner) SetTracer(t *obs.Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ch.tracer = t
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
		r.ch.prWin, r.ch.prSink = 0, nil
		return
	}
	r.ch.prWin, r.ch.prSink = window, sink
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
	r.ch.audit = on
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
		ch := r.ch
		r.mu.Unlock()
		return r.lead(ctx, c, job{s: s, cfg: cfg, f: f}, ch)
	}
}

// lead is the singleflight leader's path: walk the chain until a tier
// produces the cell, persist a result that came from below the store,
// and publish it. When a tracer is attached it wraps the whole cell in a
// span with one child per phase, so a trace shows exactly where a cell's
// wall time went.
func (r *Runner) lead(ctx context.Context, c *call, j job, ch chain) (gpu.Result, error) {
	ctx, cell := ch.tracer.Start(ctx, "cell",
		obs.String("config", j.s.CfgID),
		obs.String("workload", j.s.Workload),
		obs.String("scheme", j.s.Variant))
	defer cell.End()

	var (
		res  gpu.Result
		err  error
		from int
	)
	for from = range ch.tiers {
		if res, err = r.fetch(ctx, ch.tiers[from], &j, &ch); !errors.Is(err, errMiss) {
			break // local simulation, the last tier, never misses
		}
	}
	t := ch.tiers[from]
	if errors.Is(err, errAbandoned) {
		cell.SetAttr(obs.String("outcome", "abandoned"))
		r.finish(j.s, c, gpu.Result{}, errAbandoned, false)
		return gpu.Result{}, ctx.Err()
	}
	if err == nil && from > 0 && ch.tiers[0].store != nil {
		// Persist best-effort: a full disk must not fail the caller,
		// but it is counted so operators can see the store is dark.
		_, ps := ch.tracer.Start(ctx, "persist")
		perr := ch.tiers[0].store.Save(j.cfg, j.s.Workload, j.s.Variant, res)
		ps.SetAttr(obs.Bool("ok", perr == nil))
		ps.End()
		if perr != nil {
			r.mu.Lock()
			r.stat.StoreErrors++
			r.mu.Unlock()
		}
	}
	cell.SetAttr(t.outcome(err))
	ran := t.store == nil && t.remote == nil
	r.finish(j.s, c, res, err, ran)
	return res, err
}

// outcome is the cell span's attribute naming how a tier finished the
// cell. Each value is a constant, so building it never allocates.
func (t tier) outcome(err error) obs.Attr {
	switch {
	case t.store != nil:
		return obs.String("outcome", "store-hit")
	case t.remote != nil:
		return obs.String("outcome", "remote")
	case err != nil:
		return obs.String("outcome", "error")
	}
	return obs.String("outcome", "run")
}

// fetch asks one tier for the cell. It returns errMiss when the tier
// cannot produce it, errAbandoned when ctx ended before a simulation
// started, or the result (or simulation error) that finishes the call.
func (r *Runner) fetch(ctx context.Context, t tier, j *job, ch *chain) (gpu.Result, error) {
	switch {
	case t.store != nil:
		// A store hit satisfies the call (and everyone singleflighted
		// onto it) without consuming a worker slot.
		_, lk := ch.tracer.Start(ctx, "store-lookup")
		res, ok := t.store.Lookup(j.cfg, j.s.Workload, j.s.Variant)
		lk.SetAttr(obs.Bool("hit", ok))
		lk.End()
		var err error
		r.mu.Lock()
		if ok {
			r.stat.StoreHits++
		} else {
			r.stat.StoreMisses++
			err = errMiss
		}
		r.mu.Unlock()
		return res, err
	case t.remote != nil:
		// Only expressible cells travel; a remote failure is a miss, so
		// the cell simulates locally and results never depend on where
		// they were computed. A cancelled ctx is not a remote error: the
		// local tier then abandons the call.
		if !t.remote.Can(j.s.Workload, j.s.Variant) {
			return gpu.Result{}, errMiss
		}
		_, rs := ch.tracer.Start(ctx, "remote")
		res, err := t.remote.Run(ctx, j.cfg, j.s.Workload, j.s.Variant)
		rs.SetAttr(obs.Bool("ok", err == nil))
		rs.End()
		r.mu.Lock()
		switch {
		case err == nil:
			r.stat.RemoteHits++
		case ctx.Err() == nil:
			r.stat.RemoteErrors++
		}
		r.mu.Unlock()
		if err != nil {
			err = errMiss
		}
		return res, err
	}
	return r.simulate(ctx, j, ch)
}

// simulate is the local tier: wait for a worker slot, then run the cell
// under the chain's observers.
func (r *Runner) simulate(ctx context.Context, j *job, ch *chain) (gpu.Result, error) {
	// Check cancellation before racing for a slot: with both a free
	// slot and a done context ready, select would choose arbitrarily.
	if ctx.Err() != nil {
		return gpu.Result{}, errAbandoned
	}
	_, qw := ch.tracer.Start(ctx, "queue-wait")
	select {
	case ch.slots <- struct{}{}:
		qw.End()
	case <-ctx.Done():
		qw.SetAttr(obs.Bool("cancelled", true))
		qw.End()
		return gpu.Result{}, errAbandoned
	}
	// With a tracer attached, the machine emits spans for its top-level
	// stages (execute, drain) as children of the simulate span.
	simCtx, sim := ch.tracer.Start(ctx, "simulate")
	o := gpu.Observers{Audit: ch.audit, Tracer: ch.tracer}
	if ch.prSink != nil {
		o.Probes = obs.NewProbes(ch.prWin)
	}
	res, err := gpu.Simulate(simCtx, j.cfg, j.s.Workload, j.s.Variant, j.f, nil, o)
	if err != nil {
		err = fmt.Errorf("bench: %s/%s/%s: %w", j.s.CfgID, j.s.Workload, j.s.Variant, err)
	} else if ch.prSink != nil {
		ch.prSink(j.s, o.Probes)
	}
	sim.SetAttr(obs.Bool("ok", err == nil))
	sim.End()
	<-ch.slots
	return res, err
}

// finish publishes a call's outcome. Failed or abandoned calls are
// removed from the memo (if still current) so a later request retries.
// ran distinguishes an executed simulation from a store or remote hit,
// which completes the call without counting as a run.
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

// Prefetch fans the given specs out across the worker pool, blocks
// until every one has completed, and returns their results keyed by
// spec. Duplicate specs (and specs another caller is already running)
// collapse onto a single simulation. The first failure cancels the
// batch's still-queued work and is returned with a nil map; completed
// results stay memoized either way.
func (r *Runner) Prefetch(ctx context.Context, specs []Spec) (map[Spec]gpu.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	results := make([]gpu.Result, len(specs))
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s Spec) {
			defer wg.Done()
			res, err := r.ResultCtx(ctx, s)
			if err != nil && !errors.Is(err, context.Canceled) {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
			}
			results[i] = res
		}(i, s)
	}
	wg.Wait()
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	out := make(map[Spec]gpu.Result, len(specs))
	for i, s := range specs {
		out[s] = results[i]
	}
	return out, nil
}

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
