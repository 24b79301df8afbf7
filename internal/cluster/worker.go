package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"cachecraft/internal/bench"
	"cachecraft/internal/chaos"
	"cachecraft/internal/obs"
	"cachecraft/internal/store"
	"cachecraft/internal/version"
)

// ErrVersionMismatch reports that the coordinator refused this worker
// because it runs a different simulator revision. It is fatal: polling
// again cannot help until one side is upgraded.
var ErrVersionMismatch = errors.New("cluster: simulator revision mismatch with coordinator")

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8344".
	Coordinator string
	// Name identifies this worker in leases and metrics (default
	// "<hostname>-<pid>").
	Name string
	// Runner executes leased cells. Its worker pool bounds concurrent
	// simulations; its store (if any) lets the worker answer re-leased
	// cells from local disk without re-simulating.
	Runner *bench.Runner
	// Batch is the most cells requested per lease (default: the
	// runner's worker-pool size, so one lease keeps the pool full).
	Batch int
	// HTTPClient overrides the default client (tests, timeouts).
	HTTPClient *http.Client
	// Registry, when set, is snapshotted onto every lease poll and
	// heartbeat so the coordinator can re-export this worker's metrics
	// under per-worker-labelled families on its own /metrics. Optional:
	// without it the worker reports liveness only.
	Registry *obs.Registry
	// Chaos injects faults into the worker's RPC paths (lease,
	// heartbeat, complete — errors and partitions look like connection
	// failures, latency delays the call) and into cell execution
	// (SiteWorkerExec: an injected error fails the cell, an injected
	// crash abandons the whole lease as a killed process would). Nil is
	// chaos off at zero cost.
	Chaos *chaos.Injector
	// Logger reports lease churn and push failures (nil = silent).
	Logger *slog.Logger
}

// Worker is the pull side of the cluster: poll a lease, simulate its
// cells through the local runner, stream results back as each finishes,
// heartbeat until the lease's work is done. Create with NewWorker; Run
// blocks until the context ends.
type Worker struct {
	opt WorkerOptions
	hc  *http.Client
}

// NewWorker validates options and fills defaults.
func NewWorker(opt WorkerOptions) (*Worker, error) {
	if opt.Coordinator == "" {
		return nil, fmt.Errorf("cluster: worker needs a coordinator URL")
	}
	if opt.Runner == nil {
		return nil, fmt.Errorf("cluster: worker needs a runner")
	}
	if opt.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opt.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opt.Batch <= 0 {
		opt.Batch = opt.Runner.Workers()
	}
	hc := opt.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Worker{opt: opt, hc: hc}, nil
}

// Name reports the worker's lease/metrics identity.
func (w *Worker) Name() string { return w.opt.Name }

// pollRetry is the fixed pause after a lease poll that failed (the
// coordinator is down, restarting, or answered an error). An empty poll
// needs no pause: the coordinator already held it open.
const pollRetry = time.Second

// Run polls for leases and processes them until ctx ends. A failed poll
// is retried after pollRetry; a simulator-revision mismatch returns
// ErrVersionMismatch.
func (w *Worker) Run(ctx context.Context) error {
	for ctx.Err() == nil {
		grant, err := w.lease(ctx)
		switch {
		case errors.Is(err, ErrVersionMismatch):
			return err
		case err != nil && ctx.Err() == nil:
			w.logf("lease poll: %v", err)
			sleepCtx(ctx, pollRetry)
		case grant != nil:
			w.process(ctx, grant)
		}
	}
	return ctx.Err()
}

func bump(d, max time.Duration) time.Duration {
	d *= 2
	if d > max {
		d = max
	}
	return d
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// process runs every cell of one lease through the local runner,
// heartbeating in the background and pushing each result the moment it
// is ready (batching whatever finished in the meantime). Everything
// under the lease shares leaseCtx, so a chaos-injected crash cancels
// the whole claim at once — heartbeats stop, sims abort, pushes cease —
// and the coordinator sees exactly what a kill -9 would leave behind.
func (w *Worker) process(ctx context.Context, grant *LeaseGrant) {
	leaseCtx, cancelLease := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeat(leaseCtx, grant)
	}()
	defer func() {
		cancelLease()
		hbWG.Wait()
	}()

	results := make(chan CellResult)
	var wg sync.WaitGroup
	for _, cell := range grant.Cells {
		wg.Add(1)
		go func(cell Cell) {
			defer wg.Done()
			res, crashed := w.runCell(leaseCtx, cell)
			if crashed {
				w.logf("chaos: injected crash on %s; abandoning lease %s", cell.Fingerprint, grant.LeaseID)
				cancelLease()
				return
			}
			select {
			case results <- res:
			case <-leaseCtx.Done():
			}
		}(cell)
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	for res := range results {
		batch := []CellResult{res}
	drain:
		for {
			select {
			case more, ok := <-results:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		if leaseCtx.Err() != nil {
			return // crashed mid-lease; nothing more gets pushed
		}
		w.complete(leaseCtx, grant, batch)
	}
}

// runCell executes one leased cell. The cell's fingerprint doubles as its
// runner config id, so identical cells re-leased later hit the memo (or
// the worker's local store) instead of re-simulating. crashed reports a
// chaos-injected worker crash: the caller abandons the entire lease.
func (w *Worker) runCell(ctx context.Context, cell Cell) (res CellResult, crashed bool) {
	if d := w.opt.Chaos.Fault(chaos.SiteWorkerExec, cell.Fingerprint); d.Crash {
		return CellResult{}, true
	} else if d.Err != nil {
		d.Sleep()
		return CellResult{Fingerprint: cell.Fingerprint, Error: d.Err.Error()}, false
	} else {
		d.Sleep()
	}
	w.opt.Runner.AddConfig(cell.Fingerprint, cell.Config)
	out, err := w.opt.Runner.ResultCtx(ctx, bench.Spec{
		CfgID:    cell.Fingerprint,
		Workload: cell.Workload,
		Variant:  cell.Scheme,
	})
	if err != nil {
		return CellResult{Fingerprint: cell.Fingerprint, Error: err.Error()}, false
	}
	return CellResult{Record: &store.Record{
		Fingerprint: cell.Fingerprint,
		Sim:         version.String(),
		Workload:    cell.Workload,
		Scheme:      cell.Scheme,
		Result:      out,
	}}, false
}

// heartbeat renews the lease every TTL/3 until the lease's work is done
// or the coordinator reports the lease gone (410) — after which the
// worker keeps computing quietly: results are accepted first-wins even
// without a live lease. Each renewal gets a timeout derived from the
// lease TTL: a renewal still in flight when half the TTL is gone has
// already lost its purpose, and an unbounded hang here would silently
// stop the renewals that keep the lease alive.
func (w *Worker) heartbeat(ctx context.Context, grant *LeaseGrant) {
	ttl := time.Duration(grant.TTLMs) * time.Millisecond
	every := ttl / 3
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	budget := rpcBudget(ttl/2, time.Second)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		hbCtx, cancel := context.WithTimeout(ctx, budget)
		code, err := w.post(hbCtx, "/v1/cluster/heartbeat", HeartbeatRequest{
			LeaseID: grant.LeaseID,
			Worker:  w.opt.Name,
			Metrics: w.snapshot(),
		}, nil)
		cancel()
		switch {
		case ctx.Err() != nil:
			return
		case err != nil:
			w.logf("heartbeat: %v", err) // transient; keep ticking
		case code == http.StatusGone:
			w.logf("lease %s expired under us; finishing without it", grant.LeaseID)
			return
		}
	}
}

// rpcBudget is a lease-TTL-derived per-call timeout with a floor: the
// TTL scales the budget on real deployments while the floor keeps tiny
// test TTLs from making every call time out.
func rpcBudget(fromTTL, floor time.Duration) time.Duration {
	if fromTTL < floor {
		return floor
	}
	return fromTTL
}

// lease polls for work: a grant, nil when the coordinator held the poll
// and no cell arrived (204), or an error.
func (w *Worker) lease(ctx context.Context) (*LeaseGrant, error) {
	var grant LeaseGrant
	code, err := w.post(ctx, "/v1/cluster/lease", LeaseRequest{
		Worker:  w.opt.Name,
		Max:     w.opt.Batch,
		Sim:     version.String(),
		Metrics: w.snapshot(),
	}, &grant)
	switch {
	case err != nil:
		return nil, err
	case code == http.StatusOK && len(grant.Cells) > 0:
		return &grant, nil
	case code == http.StatusNoContent:
		return nil, nil
	case code == http.StatusConflict:
		return nil, ErrVersionMismatch
	default:
		return nil, fmt.Errorf("cluster: lease poll: HTTP %d", code)
	}
}

// complete pushes a batch of results, retrying transient failures. A push
// that ultimately fails is only logged: the lease will expire and the
// coordinator re-dispatches, so results are never silently lost — just
// recomputed. Each attempt is bounded by a TTL-derived timeout so a
// push into a hung socket cannot outlive the lease it reports under.
func (w *Worker) complete(ctx context.Context, grant *LeaseGrant, batch []CellResult) {
	req := CompleteRequest{LeaseID: grant.LeaseID, Worker: w.opt.Name, Results: batch}
	budget := rpcBudget(time.Duration(grant.TTLMs)*time.Millisecond, 2*time.Second)
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt < 4; attempt++ {
		pushCtx, cancel := context.WithTimeout(ctx, budget)
		code, err := w.post(pushCtx, "/v1/cluster/complete", req, nil)
		cancel()
		switch {
		case ctx.Err() != nil:
			return
		case err == nil && code == http.StatusOK:
			return
		case err == nil:
			w.logf("complete: HTTP %d", code)
		default:
			w.logf("complete: %v", err)
		}
		sleepCtx(ctx, backoff)
		backoff = bump(backoff, 2*time.Second)
	}
	w.logf("dropping %d results after repeated push failures (lease expiry will re-dispatch)", len(batch))
}

// rpcSites maps RPC paths to their chaos sites, so a fault schedule can
// target (say) heartbeats without touching result pushes.
var rpcSites = map[string]chaos.Site{
	"/v1/cluster/lease":     chaos.SiteWorkerLease,
	"/v1/cluster/heartbeat": chaos.SiteWorkerHeartbeat,
	"/v1/cluster/complete":  chaos.SiteWorkerComplete,
}

// post sends one JSON request and decodes a JSON body into out (when out
// is non-nil and the status is 200). Chaos faults fire before the wire:
// an injected error or partition is indistinguishable from a connection
// failure, injected latency stalls the call inside whatever context
// budget the caller imposed.
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, error) {
	if site, ok := rpcSites[path]; ok {
		if err := w.opt.Chaos.Inject(site, w.opt.Name); err != nil {
			return 0, fmt.Errorf("cluster: %s: %w", path, err)
		}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opt.Coordinator+path, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("cluster: decode %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// snapshot flattens the worker's registry to the name → value map the
// wire protocol carries; nil when no registry was configured. Polls
// carry it too — not just heartbeats — so an idle worker's families
// stay fresh on the coordinator.
func (w *Worker) snapshot() map[string]uint64 {
	if w.opt.Registry == nil {
		return nil
	}
	c := w.opt.Registry.Snapshot()
	names := c.Names()
	out := make(map[string]uint64, len(names))
	for _, n := range names {
		out[n] = c.Get(n)
	}
	return out
}

func (w *Worker) logf(format string, args ...any) {
	if w.opt.Logger != nil {
		w.opt.Logger.Info("worker " + w.opt.Name + ": " + fmt.Sprintf(format, args...))
	}
}
