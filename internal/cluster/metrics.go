package cluster

import "cachecraft/internal/obs"

// metrics is the coordinator's instrument set. Queue and lease totals are
// plain counters incremented at the state transitions that own them;
// point-in-time populations (pending/leased cells, live workers) are
// sampling gauges so the exposition can never drift from coordinator
// state. The worker label is operator-assigned (one value per worker
// process), so its cardinality is the fleet size, not request volume.
//
// The stream-error counter shares serve's cachecraft_sweep_cell_errors_total
// family — both the local and the cluster sweep stream report terminal
// cell failures on one metric, and a cell that fails on one worker but
// succeeds on a retry contributes nothing.
type metrics struct {
	queued          *obs.Counter    // cells entered into the pending queue
	leased          *obs.Counter    // cells handed out in leases (incl. retries)
	retried         *obs.Counter    // cells re-queued after failure or expiry
	expired         *obs.Counter    // leases reaped past their deadline
	failed          *obs.Counter    // cells terminally failed (budget exhausted)
	storeSkips      *obs.Counter    // submitted cells answered from the store
	quarantined     *obs.Counter    // cells condemned by the poison-cell rule
	journalReplayed *obs.Counter    // cells restored from the journal at startup
	completed       *obs.CounterVec // cells completed, by worker
	workerLeases    *obs.GaugeVec   // live leases, by worker
	leaseSeconds    *obs.Histogram  // lease grant → first accepted result
	streamErrors    *obs.Counter    // shared with serve: terminal error lines streamed
}

func newMetrics(reg *obs.Registry, c *Coordinator) *metrics {
	m := &metrics{}
	m.queued = reg.Counter("cachecraft_cluster_cells_queued_total",
		"Cells entered into the coordinator's pending queue (store hits are skipped, not queued).")
	m.leased = reg.Counter("cachecraft_cluster_cells_leased_total",
		"Cells handed out to workers in leases, including retries after failure or expiry.")
	m.retried = reg.Counter("cachecraft_cluster_cells_retried_total",
		"Cells re-queued with backoff after a worker failure or lease expiry.")
	m.expired = reg.Counter("cachecraft_cluster_leases_expired_total",
		"Leases reaped because no heartbeat arrived before the deadline.")
	m.failed = reg.Counter("cachecraft_cluster_cells_failed_total",
		"Cells that exhausted their retry budget and failed terminally.")
	m.storeSkips = reg.Counter("cachecraft_cluster_store_skips_total",
		"Submitted cells answered directly from the persistent store without dispatch.")
	m.quarantined = reg.Counter("cachecraft_cells_quarantined_total",
		"Cells quarantined as poison after consecutive crash-like failures across distinct workers.")
	m.journalReplayed = reg.Counter("cachecraft_journal_replayed_cells_total",
		"Completed cells restored from the sweep journal when this coordinator started.")
	m.completed = reg.CounterVec("cachecraft_cluster_cells_completed_total",
		"Cells completed successfully, by the worker whose result was accepted.", "worker")
	m.workerLeases = reg.GaugeVec("cachecraft_cluster_worker_active_leases",
		"Live leases currently held, by worker.", "worker")
	m.leaseSeconds = reg.Histogram("cachecraft_cluster_lease_seconds",
		"Seconds from lease grant to each accepted result under that lease.")
	// Same family serve registers for the local sweep stream; the
	// registry dedupes by name, so both streams count into one series.
	m.streamErrors = reg.Counter("cachecraft_sweep_cell_errors_total",
		"Sweep cells that failed mid-stream and were reported as NDJSON error lines.")
	reg.GaugeFunc("cachecraft_cluster_pending_cells",
		"Cells waiting (or backing off) for a lease.",
		c.sample(func(t tally) int { return t.pending }))
	reg.GaugeFunc("cachecraft_cluster_leased_cells",
		"Cells currently held by a live lease.",
		c.sample(func(t tally) int { return t.leased }))
	reg.GaugeFunc("cachecraft_cluster_active_workers",
		"Distinct workers currently holding live leases.",
		c.sample(func(t tally) int { return len(t.holders) }))
	reg.GaugeFunc("cachecraft_cluster_active_leases",
		"Live leases across all workers.",
		c.sample(func(t tally) int { return t.leases }))
	// Fleet liveness, sampled from the worker-contact history: known is
	// every worker ever heard from (polls count, so an idle worker is
	// known), live is the subset seen within three lease TTLs. known -
	// live is the dead-worker count an operator alerts on.
	reg.GaugeFunc("cachecraft_cluster_known_workers",
		"Workers that have ever contacted this coordinator (lease poll, heartbeat, or result push).",
		c.sample(func(t tally) int { return t.known }))
	reg.GaugeFunc("cachecraft_cluster_live_workers",
		"Known workers heard from within the liveness horizon (3x lease TTL).",
		c.sample(func(t tally) int { return t.live }))
	return m
}
