// Package cachecraft is the public API of the CacheCraft reproduction: a
// trace-driven GPU memory-hierarchy simulator for studying memory
// protection (inline ECC) schemes, the CacheCraft reconstructed-caching
// controller itself, and the bit-level ECC codecs the protection story
// rests on.
//
// # Quick start
//
//	cfg := cachecraft.DefaultConfig()
//	res, err := cachecraft.Run(cfg, "stream", "cachecraft")
//	if err != nil { ... }
//	fmt.Println(res.IPC, res.DRAMBytes["redundancy"])
//
// Run simulates one (workload, protection scheme) pair on the configured
// GPU and returns timing and traffic results. Workloads() and Schemes()
// enumerate the available choices. Run options attach the invariant
// audit (WithAudit) and the time-resolved probes (WithProbes), or build
// the cachecraft scheme from explicit Options for ablations
// (WithCacheCraft).
//
// The underlying subsystem packages live in internal/; this package is the
// stable surface.
package cachecraft

import (
	"context"
	"fmt"

	"cachecraft/internal/bench"
	"cachecraft/internal/config"
	"cachecraft/internal/core"
	"cachecraft/internal/gpu"
	"cachecraft/internal/layout"
	"cachecraft/internal/obs"
	"cachecraft/internal/schemes"
	"cachecraft/internal/store"
	"cachecraft/internal/trace"
	"cachecraft/internal/version"
)

// Config is the simulated GPU configuration (Table 1 of the evaluation).
type Config = config.GPU

// Result is the outcome of one simulation run: cycles, instructions, IPC,
// and DRAM traffic broken down by class.
type Result = gpu.Result

// Options configures the CacheCraft controller's four mechanisms
// (reconstruction, redundancy cache, predictor, write buffer).
type Options = core.Options

// Geometry describes the inline-ECC protection granularity.
type Geometry = layout.Geometry

// DefaultConfig returns the evaluation's baseline GPU configuration.
func DefaultConfig() Config { return config.Default() }

// QuickConfig returns a scaled-down configuration suitable for tests and
// smoke runs; absolute numbers are not meaningful at this scale.
func QuickConfig() Config { return config.Quick() }

// DefaultOptions returns the full CacheCraft configuration (all four
// mechanisms enabled).
func DefaultOptions() Options { return core.DefaultOptions() }

// Version reports the simulator identity (module and simulation-semantics
// revision, e.g. "cachecraft@r4"). It is baked into every persistent-store
// fingerprint, so results produced by an older simulator revision are
// never served as cache hits.
func Version() string { return version.String() }

// Fingerprint returns the canonical content address of one simulation:
// a hex SHA-256 over (Version(), the full configuration, workload,
// scheme). It is the key under which cachecraft-sweep -store and
// cachecraft-serve persist results, and the {fingerprint} path segment of
// the service's GET /v1/results endpoint. See docs/MODEL.md for the
// canonicalization rules.
func Fingerprint(cfg Config, workload, scheme string) string {
	return store.Fingerprint(cfg, workload, scheme)
}

// Workloads lists the available synthetic workloads.
func Workloads() []string { return trace.Names() }

// Schemes lists the protection schemes in evaluation order: none,
// inline-naive, ecc-cache, cachecraft.
func Schemes() []string { return schemes.All() }

// RunOption configures one Run.
type RunOption func(*runOptions)

type runOptions struct {
	observe gpu.Observers
	cc      *Options
}

// WithAudit arms the invariant-audit layer: the simulation executes under
// internal/audit's checker, which verifies byte conservation, MSHR
// pairing, tick monotonicity, DRAM scheduling legality, and full
// end-of-sim drain as it runs. Auditing changes no simulated timing — a
// clean audited run returns exactly the unaudited result — but a run
// that violates an invariant fails with an error naming the first
// violated rule. See docs/MODEL.md ("Invariants & auditing").
func WithAudit() RunOption {
	return func(o *runOptions) { o.observe.Audit = true }
}

// WithProbes attaches the time-resolved probe layer, recording every
// probe track into p, a fresh set from NewProbes (which fixes the
// sampling window). It composes with WithAudit. Probes never schedule
// simulator events, so the result is identical to an unprobed run's;
// after Run returns, p is flushed and ready for Timeline.AddCell or
// Snapshot.
func WithProbes(p *Probes) RunOption {
	return func(o *runOptions) { o.observe.Probes = p }
}

// WithCacheCraft builds the cachecraft scheme with explicit controller
// options (for ablation and sensitivity studies). Run's scheme must be
// "cachecraft".
func WithCacheCraft(opt Options) RunOption {
	return func(o *runOptions) { o.cc = &opt }
}

// Run simulates the named workload under the named protection scheme.
func Run(cfg Config, workload, scheme string, opts ...RunOption) (Result, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	factory, err := schemes.ByName(scheme)
	if err != nil {
		return Result{}, err
	}
	if o.cc != nil {
		if scheme != "cachecraft" {
			return Result{}, fmt.Errorf("cachecraft: WithCacheCraft needs scheme \"cachecraft\", got %q", scheme)
		}
		factory = schemes.CacheCraftWith(*o.cc)
	}
	return gpu.Simulate(context.Background(), cfg, workload, scheme, factory, nil, o.observe)
}

// Probes is a simulation's time-resolved probe set: cycle-sampled series
// (SM issue rate, DRAM bandwidth by traffic class, per-bank L2 hit rate,
// reconstructed-line fill and hit rates, join latency, and more) taken
// at a fixed sampling window. Export it through a Timeline; see
// docs/OBSERVABILITY.md for the track catalog.
type Probes = obs.Probes

// NewProbes returns an empty probe set sampling every track at the given
// window (in cycles; 0 uses a 1-cycle window), for WithProbes.
func NewProbes(window uint64) *Probes { return obs.NewProbes(window) }

// Timeline collects probe sets (and tracer spans) for export as NDJSON
// or Chrome trace-event JSON loadable in Perfetto.
type Timeline = obs.Timeline

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return obs.NewTimeline() }

// RunAll simulates every (workload, scheme) pair in the cross product,
// fanning the independent simulations out across a worker pool bounded by
// runtime.NumCPU(). Each simulation is deterministic (workload generation
// is seeded per (seed, SM) with no shared mutable state), so the returned
// results are byte-identical to running the pairs serially. Results come
// back in deterministic order: workloads major, schemes minor. The first
// failure cancels outstanding work and is returned.
func RunAll(cfg Config, workloads, schemes []string) ([]Result, error) {
	r := bench.NewRunner(cfg)
	specs := make([]bench.Spec, 0, len(workloads)*len(schemes))
	for _, wl := range workloads {
		for _, s := range schemes {
			specs = append(specs, bench.Spec{CfgID: "base", Workload: wl, Variant: s})
		}
	}
	cells, err := r.Prefetch(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(specs))
	for i, s := range specs {
		out[i] = cells[s]
	}
	return out, nil
}
