// Package chaos is a deterministic, seed-driven fault-injection layer
// for the distributed/service tier: the cluster-layer analogue of
// internal/audit's invariant checker. Components expose nil-check hook
// points (internal/store Put/Get/fsync, internal/cluster worker RPCs and
// cell execution, internal/serve's request path); an Injector attached to
// those points decides — from per-site pseudo-random streams derived from
// one seed — whether each operation proceeds, fails with an injected
// error, stalls for an injected latency, is cut off as if the network
// partitioned, or crashes the surrounding component the way SIGKILL
// would.
//
// The contract mirrors the audit layer's: chaos off (a nil *Injector)
// costs one branch and zero allocations on every hook, so the hooks can
// stay compiled into production paths; chaos on exercises exactly the
// recovery machinery — lease expiry, retry budgets, quarantine, store
// circuit breaking, journal replay — that real fleets need. Faults are
// injected, but outcomes must not change: the chaos harness
// (chaos_e2e_test.go) asserts that a sweep under randomized fault seeds
// produces results byte-identical to a fault-free run.
//
// Determinism is per (seed, site, rule): each site draws from its own
// splitmix64 stream, so adding a rule at one site never perturbs the
// decisions at another. Concurrent callers of one site interleave their
// draws in goroutine-schedule order, so the exact operations faulted may
// vary run to run — what is deterministic is the fault mix, and what must
// be invariant is the result.
package chaos

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Site names one hook point. The constants below are the sites wired
// through the repository, and ParseSpec accepts no other name, so a typo
// in a -chaos flag cannot arm a rule that never fires.
type Site string

const (
	// SiteStoreGet guards internal/store reads (a fault is a read error,
	// which the store treats as a miss and its breaker counts as disk
	// sickness).
	SiteStoreGet Site = "store.get"
	// SiteStorePut guards internal/store writes (ENOSPC/EIO stand-ins).
	SiteStorePut Site = "store.put"
	// SiteStoreSync guards the store's fsync steps specifically.
	SiteStoreSync Site = "store.sync"
	// SiteWorkerLease guards the worker's lease polls (partition: the
	// coordinator is unreachable).
	SiteWorkerLease Site = "worker.lease"
	// SiteWorkerHeartbeat guards the worker's heartbeat posts.
	SiteWorkerHeartbeat Site = "worker.heartbeat"
	// SiteWorkerComplete guards the worker's result-upload posts.
	SiteWorkerComplete Site = "worker.complete"
	// SiteWorkerExec guards cell execution on the worker. An error fault
	// makes the cell report failure; a crash fault makes the worker
	// abandon the whole lease silently — no completes, no heartbeats —
	// exactly as if the process had been SIGKILLed mid-lease.
	SiteWorkerExec Site = "worker.exec"
	// SiteServeRequest guards the HTTP serving layer's request path (a
	// fault is a 503 before the handler runs, or added latency).
	SiteServeRequest Site = "serve.request"
)

// sites is every wired Site, the names ParseSpec accepts.
var sites = []Site{
	SiteStoreGet, SiteStorePut, SiteStoreSync,
	SiteWorkerLease, SiteWorkerHeartbeat, SiteWorkerComplete, SiteWorkerExec,
	SiteServeRequest,
}

// Kind is the species of an injected fault.
type Kind int

const (
	// KindError fails the operation with an injected error.
	KindError Kind = iota
	// KindLatency delays the operation, then lets it proceed.
	KindLatency
	// KindCrash kills the surrounding component (site-defined: a worker
	// abandons its lease; other sites treat it as KindError).
	KindCrash
	// KindPartition fails the operation as if the network were cut. It
	// behaves like KindError with a connection-flavored error, so
	// injectors can tell "the disk said no" from "the wire is gone".
	KindPartition
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindCrash:
		return "crash"
	case KindPartition:
		return "partition"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ErrInjected is the sentinel every injected error wraps; recovery code
// must treat it exactly like the real failure it stands in for, and tests
// assert with errors.Is that a surfaced failure was chaos's doing.
var ErrInjected = errors.New("chaos: injected fault")

// Rule arms one fault at one site.
type Rule struct {
	// Site is the hook point this rule fires at.
	Site Site
	// Kind is the fault species (default KindError).
	Kind Kind
	// P is the per-operation probability in [0, 1].
	P float64
	// Match, when non-empty, restricts the rule to operations whose key
	// (fingerprint, endpoint, path — site-defined) contains it. This is
	// how a test poisons one specific cell.
	Match string
	// After skips the rule's first After matching operations, so faults
	// can start mid-run.
	After int
	// Limit caps how many times the rule may fire (0 = unlimited), so a
	// burst can end.
	Limit int
	// Delay is the injected latency for KindLatency rules.
	Delay time.Duration
}

// Decision is the outcome of consulting the injector for one operation.
// The zero Decision means "proceed untouched". Delay, when non-zero, is
// applied before Err/Crash take effect, mirroring a slow-then-dead disk
// or link.
type Decision struct {
	Delay time.Duration
	Err   error
	Crash bool
}

// Sleep blocks for the decision's injected latency, if any.
func (d Decision) Sleep() {
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
}

// rule is a Rule armed inside an Injector, with its precomputed error
// (so firing never allocates beyond the site's bookkeeping) and its
// firing counters.
type rule struct {
	Rule
	err   error
	seen  int // matching operations observed
	fired int // faults injected
}

// siteState is one site's deterministic stream plus its armed rules.
type siteState struct {
	mu    sync.Mutex
	rng   uint64
	rules []*rule
	hits  uint64 // faults injected at this site
}

// Injector holds armed rules and per-site randomness. The nil *Injector
// is a valid, always-off injector: every method short-circuits, so hook
// points need no separate enabled flag.
type Injector struct {
	seed  uint64
	mu    sync.Mutex
	sites map[Site]*siteState
}

// New builds an injector from a seed and a rule set. The same seed and
// rules reproduce the same per-site decision streams.
func New(seed uint64, rules ...Rule) *Injector {
	in := &Injector{seed: seed, sites: make(map[Site]*siteState)}
	for _, r := range rules {
		st := in.sites[r.Site]
		if st == nil {
			st = &siteState{rng: mix64(seed ^ hashSite(r.Site))}
			in.sites[r.Site] = st
		}
		st.rules = append(st.rules, &rule{Rule: r, err: buildErr(r)})
	}
	return in
}

// Seed reports the seed the injector was built with.
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

func buildErr(r Rule) error {
	switch r.Kind {
	case KindPartition:
		return fmt.Errorf("chaos: connection severed at %s: %w", r.Site, ErrInjected)
	case KindCrash:
		return fmt.Errorf("chaos: crash at %s: %w", r.Site, ErrInjected)
	default:
		return fmt.Errorf("chaos: i/o error at %s: %w", r.Site, ErrInjected)
	}
}

// Fault consults the injector for one operation at site. key names the
// operation (a fingerprint, an endpoint — site-defined) for Rule.Match;
// "" matches only unrestricted rules. A nil injector, an unknown site,
// and a losing draw all return the zero Decision. The caller applies the
// decision: Sleep() first, then honour Err/Crash.
func (in *Injector) Fault(site Site, key string) Decision {
	if in == nil {
		return Decision{}
	}
	st := in.sites[site] // sites map is immutable after New
	if st == nil {
		return Decision{}
	}
	var d Decision
	st.mu.Lock()
	for _, r := range st.rules {
		if r.Match != "" && !strings.Contains(key, r.Match) {
			continue
		}
		r.seen++
		// One draw per rule per matching operation, fired or not: the
		// stream position depends only on how many operations this site
		// has seen, never on which earlier rules fired.
		st.rng = mix64(st.rng + 0x9e3779b97f4a7c15)
		if r.seen <= r.After {
			continue
		}
		if r.Limit > 0 && r.fired >= r.Limit {
			continue
		}
		if float64(st.rng>>11)/(1<<53) >= r.P {
			continue
		}
		r.fired++
		st.hits++
		switch r.Kind {
		case KindLatency:
			if d.Delay < r.Delay {
				d.Delay = r.Delay
			}
			continue // latency composes with a later error rule
		case KindCrash:
			d.Crash = true
			d.Err = r.err
		default:
			d.Err = r.err
		}
		break // first terminal fault wins
	}
	st.mu.Unlock()
	return d
}

// Inject is the one-call form for sites that cannot crash: it applies the
// decision's latency and returns its error (nil when the operation should
// proceed).
func (in *Injector) Inject(site Site, key string) error {
	if in == nil {
		return nil
	}
	d := in.Fault(site, key)
	d.Sleep()
	return d.Err
}

// Stats reports how many faults have been injected at each site (sites
// that never fired are absent). Nil-safe.
func (in *Injector) Stats() map[Site]uint64 {
	if in == nil {
		return nil
	}
	out := make(map[Site]uint64, len(in.sites))
	for site, st := range in.sites {
		st.mu.Lock()
		if st.hits > 0 {
			out[site] = st.hits
		}
		st.mu.Unlock()
	}
	return out
}

// InjectedTotal reports the total faults injected across all sites —
// the value behind the cachecraft_chaos_injected_total collector.
// Nil-safe.
func (in *Injector) InjectedTotal() uint64 {
	if in == nil {
		return 0
	}
	var total uint64
	for _, st := range in.sites {
		st.mu.Lock()
		total += st.hits
		st.mu.Unlock()
	}
	return total
}

// mix64 is the splitmix64 finalizer — the same mixer the trace layer uses
// for stream seeding, chosen there for collision resistance.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashSite folds a site name into the seed mix (FNV-1a).
func hashSite(s Site) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
