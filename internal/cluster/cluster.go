// Package cluster shards a sweep grid across worker processes over HTTP.
//
// The coordinator side expands sweep requests into fingerprint-keyed
// cells (one per configuration × workload × scheme), skips cells the
// persistent store already holds, and hands the rest out as leases —
// batches of cells with a deadline — to workers that poll for work.
// Workers run their cells through a local bench.Runner, push each result
// back as it completes, and heartbeat to keep their leases alive. A lease
// that expires (worker death) or a cell a worker reports as failed is
// re-queued with capped exponential backoff until a retry budget is
// exhausted. That is the only way a cell is dispatched again, so a cell is
// held by at most one lease at a time.
//
// A worker whose lease expired may still push its result after the cell
// was re-leased; the first result wins. That is safe because cells are
// content-addressed: a cell's fingerprint covers the simulator revision,
// the full configuration, the workload, and the scheme, and the simulator
// is deterministic, so two workers computing the same fingerprint produce
// byte-identical records. Duplicated work is wasted time, never wrong
// answers. docs/CLUSTER.md
// documents the protocol, the failure matrix, and this determinism
// argument in full.
//
// Wire endpoints (mounted into internal/serve by Coordinator.Register):
//
//	POST /v1/cluster/sweep      grid → NDJSON records + {"done":true} trailer
//	POST /v1/cluster/lease      worker polls for a batch of cells
//	POST /v1/cluster/complete   worker pushes per-cell results
//	POST /v1/cluster/heartbeat  worker renews a lease deadline
package cluster

import (
	"fmt"
	"slices"

	"cachecraft/internal/config"
	"cachecraft/internal/schemes"
	"cachecraft/internal/store"
	"cachecraft/internal/trace"
)

// Cell is one simulation the cluster must materialize. The configuration
// travels in full (it is plain data), so workers need no out-of-band
// agreement about sweep parameters; the fingerprint is the cell's
// identity everywhere — queue key, store address, and the join point for
// duplicate results.
type Cell struct {
	Fingerprint string     `json:"fingerprint"`
	Config      config.GPU `json:"config"`
	Workload    string     `json:"workload"`
	Scheme      string     `json:"scheme"`
}

// NewCell builds a cell with its canonical fingerprint.
func NewCell(cfg config.GPU, workload, scheme string) Cell {
	return Cell{
		Fingerprint: store.Fingerprint(cfg, workload, scheme),
		Config:      cfg,
		Workload:    workload,
		Scheme:      scheme,
	}
}

// Expressible reports whether a (workload, scheme) pair can travel over
// the cluster protocol: both must be registered names, because workers
// reconstruct the scheme from its name. Custom in-process variants
// (bench.Runner.AddVariant closures) are not expressible and run locally.
func Expressible(workload, scheme string) bool {
	return slices.Contains(trace.Names(), workload) && slices.Contains(schemes.All(), scheme)
}

// SweepRequest is the body of both sweep endpoints, POST /v1/sweep and
// POST /v1/cluster/sweep. Empty lists default to the full registered
// sets; a nil Config uses the server's base configuration. Only a
// coordinator honours Config (sensitivity sweeps): the local endpoint
// rejects it.
type SweepRequest struct {
	Workloads []string    `json:"workloads"`
	Schemes   []string    `json:"schemes"`
	Config    *config.GPU `json:"config,omitempty"`
}

// Cells fills in the default lists, validates every name and the Config
// override, and expands the grid into cells against base (or Config when
// set). An error describes what the client got wrong.
func (q *SweepRequest) Cells(base config.GPU) ([]Cell, error) {
	if len(q.Workloads) == 0 {
		q.Workloads = trace.Names()
	}
	if len(q.Schemes) == 0 {
		q.Schemes = schemes.All()
	}
	cfg := base
	if q.Config != nil {
		// Reject a bad geometry here: once leased, it would panic the
		// worker that builds the machine.
		if err := q.Config.Validate(); err != nil {
			return nil, fmt.Errorf("bad config: %w", err)
		}
		cfg = *q.Config
	}
	cells := make([]Cell, 0, len(q.Workloads)*len(q.Schemes))
	for _, wl := range q.Workloads {
		for _, sc := range q.Schemes {
			if !Expressible(wl, sc) {
				return nil, fmt.Errorf("unknown workload or scheme %q/%q", wl, sc)
			}
			cells = append(cells, NewCell(cfg, wl, sc))
		}
	}
	return cells, nil
}

// LeaseRequest is the body of POST /v1/cluster/lease.
type LeaseRequest struct {
	// Worker names the polling worker (metrics label, lease holder).
	// Required.
	Worker string `json:"worker"`
	// Max bounds how many cells the worker wants (clamped to [1, 256]).
	Max int `json:"max"`
	// Sim is the worker's version.String(). A mismatch is refused with
	// 409: a mixed-revision cluster would poison the content-addressed
	// store with records no one can look up.
	Sim string `json:"sim"`
	// Metrics is an optional snapshot of the worker's metrics registry
	// (obs.Registry.Snapshot flattened to name → value). Polls carry it
	// too — not just heartbeats — so an idle worker stays visible on the
	// coordinator's /metrics and /v1/cluster/status.
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// LeaseGrant is the 200 response to a lease poll. A poll that finds no
// work is held open and gets 204 if none arrives within the hold.
type LeaseGrant struct {
	LeaseID string `json:"lease_id"`
	// TTLMs is the lease lifetime in milliseconds; heartbeats reset it.
	TTLMs int64  `json:"ttl_ms"`
	Cells []Cell `json:"cells"`
}

// HeartbeatRequest is the body of POST /v1/cluster/heartbeat. An expired
// or unknown lease answers 410 Gone; the worker's cells are already being
// re-dispatched and it should finish quietly (its results are still
// accepted — first result wins).
type HeartbeatRequest struct {
	LeaseID string `json:"lease_id"`
	// Worker names the heartbeating worker so the coordinator can track
	// liveness without resolving the lease first. Optional: old workers
	// omit it and the coordinator falls back to the lease's holder.
	Worker string `json:"worker,omitempty"`
	// Metrics is an optional snapshot of the worker's metrics registry;
	// the coordinator re-exports it under per-worker-labelled
	// cachecraft_worker_* families on its own /metrics.
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// CellResult is one element of a complete push: either a full record
// (success) or a fingerprint plus error (failure).
type CellResult struct {
	Record      *store.Record `json:"record,omitempty"`
	Fingerprint string        `json:"fingerprint,omitempty"`
	Error       string        `json:"error,omitempty"`
}

// CompleteRequest is the body of POST /v1/cluster/complete. Results for
// cells that are already done (a worker whose lease expired losing the
// first-result-wins race) or for leases that no longer hold the cell are counted in Ignored
// rather than erroring, so workers never need to care whether they won.
type CompleteRequest struct {
	LeaseID string       `json:"lease_id"`
	Worker  string       `json:"worker"`
	Results []CellResult `json:"results"`
}

// CompleteResponse reports how a complete push was applied.
type CompleteResponse struct {
	Accepted int `json:"accepted"`
	Ignored  int `json:"ignored"`
}

// WorkerStatus is one worker's row in a cluster status response. A worker
// is Live while its last contact (lease poll, heartbeat, or complete
// push) is within three lease TTLs; after that it is presumed dead and
// its leases are being reaped.
type WorkerStatus struct {
	Name string `json:"name"`
	Live bool   `json:"live"`
	// LastSeenMs is milliseconds since the worker last contacted the
	// coordinator.
	LastSeenMs int64 `json:"last_seen_ms"`
	// ActiveLeases counts leases the worker currently holds;
	// OldestLeaseMs is the age of the oldest (0 when none).
	ActiveLeases  int   `json:"active_leases"`
	OldestLeaseMs int64 `json:"oldest_lease_ms"`
	// CellsCompleted counts results this worker delivered first;
	// CellsPerSec is that count over the worker's time in the cluster.
	CellsCompleted uint64  `json:"cells_completed"`
	CellsPerSec    float64 `json:"cells_per_sec"`
}

// QuarantinedCell is one poison cell's row in a status response: the
// cell's identity, its stable terminal error, and the failure history
// ("worker: cause" lines, oldest first) that condemned it.
type QuarantinedCell struct {
	Fingerprint string   `json:"fingerprint"`
	Workload    string   `json:"workload"`
	Scheme      string   `json:"scheme"`
	Error       string   `json:"error"`
	History     []string `json:"history,omitempty"`
}

// StatusResponse is the body of GET /v1/cluster/status: a point-in-time
// picture of queue depth and worker fleet health. Workers are sorted by
// name and quarantined cells by workload/scheme/fingerprint for stable
// output.
type StatusResponse struct {
	UptimeMs         int64 `json:"uptime_ms"`
	PendingCells     int   `json:"pending_cells"`
	LeasedCells      int   `json:"leased_cells"`
	DoneCells        int   `json:"done_cells"`
	FailedCells      int   `json:"failed_cells"`
	QuarantinedCells int   `json:"quarantined_cells"`
	ActiveLeases     int   `json:"active_leases"`
	// JournalReplayedCells counts cells this coordinator restored from
	// its sweep journal at startup (0 without a journal).
	JournalReplayedCells uint64            `json:"journal_replayed_cells"`
	Workers              []WorkerStatus    `json:"workers"`
	Quarantined          []QuarantinedCell `json:"quarantined,omitempty"`
}
