package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"cachecraft/internal/config"
	"cachecraft/internal/obs"
	"cachecraft/internal/store"
	"cachecraft/internal/version"
)

// ErrClosed reports that the coordinator has shut down; waiting clients
// unblock with it instead of hanging on cells no one will run.
var ErrClosed = errors.New("cluster: coordinator closed")

// Options configures a Coordinator.
type Options struct {
	// Base is the default GPU configuration for sweep requests that do
	// not override it.
	Base config.GPU
	// Store is the durable result cache (optional). Cells already in the
	// store are answered without dispatching; completed cells are
	// persisted into it.
	Store *store.Store
	// Registry receives the coordinator's metrics (a fresh one is
	// created when nil). Pass the serving process's registry so cluster
	// counters appear on the same /metrics exposition.
	Registry *obs.Registry
	// LeaseTTL is how long a lease lives without a heartbeat
	// (default 15s). Expired leases re-queue their unfinished cells.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times one cell may be dispatched
	// before it fails terminally (default 5). Lease expiry and reported
	// failures both consume attempts.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the capped exponential backoff a
	// re-queued cell waits before redispatch (defaults 250ms and 5s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Journal is the crash-recovery log (optional). Terminal cell
	// outcomes are appended and fsynced — successes before they are
	// published to waiting clients — and New merges whatever a previous
	// process journaled, so a restarted coordinator resumes a sweep
	// with zero recomputation of finished cells.
	Journal *Journal
	// QuarantineAfter is how many consecutive crash-like failures
	// (lease expiries, not worker-reported errors) across at least two
	// distinct workers mark a cell as poison and quarantine it
	// (default 3). Quarantine is terminal: the cell stops consuming
	// workers and reports a stable error instead of blocking the sweep.
	QuarantineAfter int
	// Logger reports persist failures and lease churn (nil = silent).
	Logger *slog.Logger
}

// cellState is one cell's lifecycle record: pending (queued, possibly
// backoff-gated by notBefore), leased (held by exactly one lease), or done
// (result or terminal error published via doneCh). All fields are guarded
// by Coordinator.mu until doneCh closes, after which the outcome fields
// are immutable.
type cellState struct {
	cell        Cell
	attempts    int         // dispatch attempts consumed by failure/expiry
	notBefore   time.Time   // pending cells wait out their backoff here
	lease       string      // id of the lease holding the cell ("" = none)
	history     []failEvent // every failed attempt, oldest first
	done        bool
	quarantined bool   // terminal via the poison-cell rule
	body        []byte // canonical record bytes (success)
	sum         string
	errMsg      string // terminal failure (attempts exhausted or quarantine)
	doneCh      chan struct{}
}

// failEvent is one failed dispatch in a cell's history. crashLike marks
// lease expiries — the worker vanished rather than reporting an error —
// which is the signature the poison-cell rule looks for: a cell that
// repeatedly kills whatever worker touches it.
type failEvent struct {
	worker    string
	crashLike bool
	line      string // "worker: cause", as shown in status and the journal
}

func (cs *cellState) historyLines() []string {
	if len(cs.history) == 0 {
		return nil
	}
	out := make([]string, len(cs.history))
	for i, ev := range cs.history {
		out[i] = ev.line
	}
	return out
}

// lease is one worker's claim on a batch of cells.
type lease struct {
	id       string
	worker   string
	cells    []string // fingerprints
	granted  time.Time
	deadline time.Time
}

// workerInfo is one worker's fleet-level history: when it was first and
// last heard from (any lease poll, heartbeat, or complete push counts as
// contact) and how many cells it delivered first. Guarded by
// Coordinator.mu. Workers are never forgotten — a dead worker stays in
// the status report marked not live, which is the interesting signal.
type workerInfo struct {
	firstSeen time.Time
	lastSeen  time.Time
	completed uint64
}

// Outcome is what a waiting client receives for one cell: the canonical
// record bytes, or a terminal error message. Quarantined marks error
// outcomes produced by the poison-cell rule rather than an exhausted
// retry budget.
type Outcome struct {
	Cell        Cell
	Body        []byte
	Sum         string
	Err         string
	Quarantined bool
}

// Coordinator owns the cluster's cell queue, leases, and results. Create
// with New; mount its HTTP surface with Register; Close on shutdown.
type Coordinator struct {
	opt Options
	m   *metrics

	start time.Time // coordinator birth, for status uptime

	mu       sync.Mutex
	cells    map[string]*cellState
	queue    []string      // pending fingerprints in arrival order
	wake     chan struct{} // closed and replaced whenever a cell is queued
	leases   map[string]*lease
	workers  map[string]*workerInfo // every worker ever heard from
	pendingJ []JournalEntry         // failure/quarantine entries awaiting append
	replayed uint64                 // cells restored from the journal at startup

	closed     chan struct{}
	closeOnce  sync.Once
	reaperDone chan struct{}
}

// New builds a coordinator and starts its lease reaper.
func New(opt Options) *Coordinator {
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 15 * time.Second
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 5
	}
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = 250 * time.Millisecond
	}
	if opt.BackoffCap <= 0 {
		opt.BackoffCap = 5 * time.Second
	}
	if opt.QuarantineAfter <= 0 {
		opt.QuarantineAfter = 3
	}
	if opt.Registry == nil {
		opt.Registry = obs.NewRegistry()
	}
	c := &Coordinator{
		opt:        opt,
		start:      time.Now(),
		cells:      make(map[string]*cellState),
		leases:     make(map[string]*lease),
		workers:    make(map[string]*workerInfo),
		wake:       make(chan struct{}),
		closed:     make(chan struct{}),
		reaperDone: make(chan struct{}),
	}
	c.m = newMetrics(opt.Registry, c)
	c.replay()
	go c.reaper()
	return c
}

// replay merges journal entries from a previous coordinator process:
// each intact terminal outcome becomes a pre-completed cell, so a
// resumed sweep re-submitting the same grid joins finished cells
// instantly and only dispatches what the crash actually interrupted.
// Entries from a different simulator revision are fenced out (their
// fingerprints can no longer be asked for), and the first entry per
// fingerprint wins, mirroring the live first-result-wins rule.
func (c *Coordinator) replay() {
	if c.opt.Journal == nil {
		return
	}
	for _, e := range c.opt.Journal.Replayed() {
		if e.Sim != version.String() || e.Fingerprint == "" {
			continue
		}
		if _, ok := c.cells[e.Fingerprint]; ok {
			continue
		}
		cs := &cellState{
			cell:   Cell{Fingerprint: e.Fingerprint, Workload: e.Workload, Scheme: e.Scheme},
			done:   true,
			doneCh: make(chan struct{}),
		}
		switch e.Op {
		case JournalDone:
			if e.Sum == "" || len(e.Body) == 0 {
				continue
			}
			cs.body, cs.sum = e.Body, e.Sum
		case JournalFailed:
			cs.errMsg = e.Error
		case JournalQuarantined:
			cs.errMsg = e.Error
			cs.quarantined = true
			for _, line := range e.History {
				cs.history = append(cs.history, failEvent{line: line})
			}
		default:
			continue
		}
		close(cs.doneCh)
		c.cells[e.Fingerprint] = cs
		c.replayed++
		c.m.journalReplayed.Inc()
	}
	if skipped := c.opt.Journal.Skipped(); skipped > 0 {
		c.logf("journal %s: dropped %d torn or corrupt trailing lines (their cells will recompute)",
			c.opt.Journal.Path(), skipped)
	}
	if c.replayed > 0 {
		c.logf("journal %s: restored %d completed cells", c.opt.Journal.Path(), c.replayed)
	}
}

// flushJournal appends queued failure/quarantine entries outside the
// lock. Terminal failures are journaled after publication (unlike
// successes, which are journaled before): losing one to a crash only
// means the cell recomputes on resume, and the deterministic simulator
// makes the recomputed outcome equivalent.
func (c *Coordinator) flushJournal() {
	if c.opt.Journal == nil {
		return
	}
	c.mu.Lock()
	batch := c.pendingJ
	c.pendingJ = nil
	c.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	if err := c.opt.Journal.Append(batch...); err != nil {
		c.logf("journal append: %v", err)
	}
}

// Close shuts the coordinator down: the reaper stops and every waiting
// client unblocks with ErrClosed. Cells and results already published
// remain readable, and any journal entries still queued are flushed so
// a clean shutdown loses nothing.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.closed) })
	<-c.reaperDone
	c.flushJournal()
}

// reaper expires leases even when no worker is polling (all workers
// dead), so waiting sweep clients still see their cells re-queued and —
// once the retry budget is gone — terminally failed rather than hanging.
// Lease, Heartbeat, and Complete also reap lazily, which is what drives
// expiry at sub-tick latency while traffic flows.
func (c *Coordinator) reaper() {
	defer close(c.reaperDone)
	interval := c.opt.LeaseTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-tick.C:
			c.mu.Lock()
			c.reapLocked(time.Now())
			c.mu.Unlock()
			c.flushJournal()
		}
	}
}

// Submit registers one cell with the cluster. Cells already known (from
// this or any concurrent sweep) are joined, cells the store already holds
// complete immediately, and everything else is queued for dispatch.
func (c *Coordinator) Submit(cell Cell) error {
	if cell.Fingerprint == "" {
		return fmt.Errorf("cluster: cell has no fingerprint")
	}
	if !Expressible(cell.Workload, cell.Scheme) {
		return fmt.Errorf("cluster: cell %s/%s is not expressible (unknown workload or scheme)",
			cell.Workload, cell.Scheme)
	}
	// Probe the store outside the lock (it reads the filesystem). A
	// record that lands between this probe and the queue insert just
	// means the cell runs once more — wasted work, not a wrong answer.
	var (
		body []byte
		sum  string
		hit  bool
	)
	if c.opt.Store != nil {
		body, sum, hit = c.opt.Store.GetRaw(cell.Fingerprint)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.cells[cell.Fingerprint]; ok {
		return nil
	}
	cs := &cellState{
		cell:   cell,
		doneCh: make(chan struct{}),
	}
	c.cells[cell.Fingerprint] = cs
	if hit {
		cs.done, cs.body, cs.sum = true, body, sum
		close(cs.doneCh)
		c.m.storeSkips.Inc()
		return nil
	}
	c.enqueueLocked(cs)
	c.m.queued.Inc()
	return nil
}

// enqueueLocked queues a pending cell and wakes every held lease poll.
func (c *Coordinator) enqueueLocked(cs *cellState) {
	c.queue = append(c.queue, cs.cell.Fingerprint)
	close(c.wake)
	c.wake = make(chan struct{})
}

// Wait blocks until the given cell completes (first result wins), the
// caller's context ends, or the coordinator closes.
func (c *Coordinator) Wait(ctx context.Context, fp string) (Outcome, error) {
	c.mu.Lock()
	cs, ok := c.cells[fp]
	c.mu.Unlock()
	if !ok {
		return Outcome{}, fmt.Errorf("cluster: unknown cell %q", fp)
	}
	select {
	case <-cs.doneCh:
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	case <-c.closed:
		return Outcome{}, ErrClosed
	}
	// Outcome fields are immutable once doneCh is closed.
	return Outcome{Cell: cs.cell, Body: cs.body, Sum: cs.sum, Err: cs.errMsg, Quarantined: cs.quarantined}, nil
}

// Lease hands out up to max pending cells whose backoff has elapsed to
// the named worker. It returns nil at once when there is nothing to hand
// out; the HTTP poll is what waits.
func (c *Coordinator) Lease(worker string, max int) *LeaseGrant {
	grant, _, _ := c.grantLease(worker, max)
	// Lazy reaping above may have terminally failed or quarantined
	// cells; make those outcomes durable before the next poll.
	c.flushJournal()
	return grant
}

// grantLease is Lease without the journal flush. With nothing to grant
// it returns, under the same lock, the wake channel the next enqueue
// closes and the earliest future notBefore among pending cells (zero if
// none), so a poll that waits on them cannot miss a cell.
func (c *Coordinator) grantLease(worker string, max int) (*LeaseGrant, <-chan struct{}, time.Time) {
	if max < 1 {
		max = 1
	}
	if max > 256 {
		max = 256
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	c.touchWorkerLocked(worker, now)

	var (
		take []*cellState
		next time.Time
	)
	rest := c.queue[:0]
	for _, fp := range c.queue {
		cs := c.cells[fp]
		if cs == nil || cs.done || cs.lease != "" {
			continue // completed or re-claimed elsewhere; drop from queue
		}
		if len(take) < max && !cs.notBefore.After(now) && !c.retryElsewhereLocked(cs, worker, now) {
			take = append(take, cs)
			continue
		}
		rest = append(rest, fp)
		if cs.notBefore.After(now) && (next.IsZero() || cs.notBefore.Before(next)) {
			next = cs.notBefore
		}
	}
	c.queue = rest
	if len(take) == 0 {
		return nil, c.wake, next
	}

	l := &lease{
		id:       obs.NewID(),
		worker:   worker,
		granted:  now,
		deadline: now.Add(c.opt.LeaseTTL),
	}
	grant := &LeaseGrant{LeaseID: l.id, TTLMs: c.opt.LeaseTTL.Milliseconds()}
	for _, cs := range take {
		l.cells = append(l.cells, cs.cell.Fingerprint)
		cs.lease = l.id
		grant.Cells = append(grant.Cells, cs.cell)
	}
	c.leases[l.id] = l
	c.m.leased.Add(uint64(len(take)))
	c.m.workerLeases.With(worker).Add(1)
	return grant, nil, time.Time{}
}

// retryElsewhereLocked reports whether a pending cell should wait for a
// worker other than this one: its last attempt's lease expired on this
// worker, and another worker has been heard from recently enough to take
// it. A cell that kills whichever worker runs it thus reaches a second
// worker, which the poison-cell rule needs, instead of cycling on one
// worker until its retry budget is gone. Another worker counts while it
// was heard from within three lease TTLs or three lease holds, whichever
// is longer (an idle worker re-polls at least once per hold), so neither
// a dead fleet nor a lone worker waits for long.
func (c *Coordinator) retryElsewhereLocked(cs *cellState, worker string, now time.Time) bool {
	n := len(cs.history)
	if n == 0 || !cs.history[n-1].crashLike || cs.history[n-1].worker != worker {
		return false
	}
	horizon := 3 * max(c.opt.LeaseTTL, leaseHold)
	for name, wi := range c.workers {
		if name != worker && now.Sub(wi.lastSeen) <= horizon {
			return true
		}
	}
	return false
}

// Heartbeat renews a lease's deadline. It reports false for a lease that
// has already expired or been released — the worker should stop
// heartbeating and simply finish its cells (results are still accepted).
func (c *Coordinator) Heartbeat(leaseID string) bool {
	ok := c.renewLease(leaseID)
	c.flushJournal()
	return ok
}

func (c *Coordinator) renewLease(leaseID string) bool {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	l, ok := c.leases[leaseID]
	if !ok {
		return false
	}
	l.deadline = now.Add(c.opt.LeaseTTL)
	c.touchWorkerLocked(l.worker, now)
	return true
}

// Complete applies a worker's pushed results. Successful records are
// accepted for any known, unfinished cell regardless of lease state
// (first result wins — a worker whose lease expired still did correct
// work); failures only count against leases that still hold the cell, so
// an expiry the reaper already charged cannot double-bill the retry
// budget.
//
// Write-ahead ordering: with a journal configured, successful records
// are validated under the lock, journaled and fsynced outside it, and
// only then published to waiting clients — a coordinator that crashes
// after a client saw a result is guaranteed to replay that exact result
// on restart, which is what makes a resumed sweep's stdout
// byte-identical.
func (c *Coordinator) Complete(req CompleteRequest) CompleteResponse {
	now := time.Now()
	type candidate struct {
		cs   *cellState
		rec  store.Record
		body []byte
		sum  string
	}
	var (
		resp  CompleteResponse
		puts  []store.Record
		cands []candidate
	)
	c.mu.Lock()
	c.reapLocked(now)
	c.touchWorkerLocked(req.Worker, now)
	for _, res := range req.Results {
		switch {
		case res.Record != nil:
			rec := *res.Record
			cs := c.cells[rec.Fingerprint]
			if cs == nil || cs.done || rec.Sim != version.String() ||
				rec.Workload != cs.cell.Workload || rec.Scheme != cs.cell.Scheme {
				resp.Ignored++
				continue
			}
			body, sum, err := store.EncodeRecord(rec)
			if err != nil {
				resp.Ignored++
				continue
			}
			cands = append(cands, candidate{cs: cs, rec: rec, body: body, sum: sum})
		case res.Fingerprint != "":
			cs := c.cells[res.Fingerprint]
			if cs == nil || cs.done {
				resp.Ignored++
				continue
			}
			if cs.lease != req.LeaseID {
				resp.Ignored++ // lease expired; the reaper already charged this attempt
				continue
			}
			c.failAttemptLocked(cs, req.Worker, res.Error, false, now)
			resp.Accepted++
		default:
			resp.Ignored++
		}
	}
	c.mu.Unlock()

	// WAL: fsync successes into the journal before publishing them.
	if c.opt.Journal != nil && len(cands) > 0 {
		entries := make([]JournalEntry, 0, len(cands))
		for _, cand := range cands {
			entries = append(entries, JournalEntry{
				Op:          JournalDone,
				Fingerprint: cand.rec.Fingerprint,
				Workload:    cand.rec.Workload,
				Scheme:      cand.rec.Scheme,
				Sim:         cand.rec.Sim,
				Sum:         cand.sum,
				Body:        cand.body,
			})
		}
		if err := c.opt.Journal.Append(entries...); err != nil {
			// Degrade rather than refuse the results: a lost journal
			// entry costs a recompute after a crash, never a wrong
			// answer, while rejecting finished work costs it now.
			c.logf("journal append: %v", err)
		}
	}

	c.mu.Lock()
	// The lease may have been reaped while the journal synced; re-fetch
	// so release bookkeeping cannot double-count.
	l := c.leases[req.LeaseID]
	for _, cand := range cands {
		if cand.cs.done {
			resp.Ignored++ // lost the first-result race during the fsync
			continue
		}
		c.finishLocked(cand.cs, cand.body, cand.sum, "", req.Worker)
		if l != nil {
			c.m.leaseSeconds.Observe(now.Sub(l.granted).Seconds())
		}
		if c.opt.Store != nil {
			puts = append(puts, cand.rec)
		}
		resp.Accepted++
	}
	if l != nil {
		c.maybeReleaseLocked(l)
	}
	c.mu.Unlock()
	c.flushJournal()
	// Persist outside the lock: Put does disk I/O, and a full disk must
	// not stall the control plane — a failed persist only costs a future
	// re-run.
	for _, rec := range puts {
		if err := c.opt.Store.Put(rec); err != nil {
			c.logf("persist %s: %v", rec.Fingerprint, err)
		}
	}
	return resp
}

// finishLocked publishes a cell's terminal outcome (result or error).
// Error outcomes are queued for the journal here (drained by
// flushJournal once the lock is released); success outcomes were
// already journaled by Complete before this call.
func (c *Coordinator) finishLocked(cs *cellState, body []byte, sum, errMsg, worker string) {
	cs.done = true
	cs.body, cs.sum, cs.errMsg = body, sum, errMsg
	cs.lease = ""
	switch {
	case errMsg == "":
		label := worker
		if label == "" {
			label = "unknown"
		}
		c.m.completed.With(label).Inc()
		if worker != "" {
			c.touchWorkerLocked(worker, time.Now()).completed++
		}
	case cs.quarantined:
		c.m.quarantined.Inc()
	default:
		c.m.failed.Inc()
	}
	if errMsg != "" && c.opt.Journal != nil {
		e := JournalEntry{
			Op:          JournalFailed,
			Fingerprint: cs.cell.Fingerprint,
			Workload:    cs.cell.Workload,
			Scheme:      cs.cell.Scheme,
			Sim:         version.String(),
			Error:       errMsg,
		}
		if cs.quarantined {
			e.Op = JournalQuarantined
			e.History = cs.historyLines()
		}
		c.pendingJ = append(c.pendingJ, e)
	}
	close(cs.doneCh)
}

// touchWorkerLocked records contact from a worker, creating its history
// record on first sight. A no-op for the empty name.
func (c *Coordinator) touchWorkerLocked(name string, now time.Time) *workerInfo {
	if name == "" {
		return &workerInfo{firstSeen: now, lastSeen: now}
	}
	wi := c.workers[name]
	if wi == nil {
		wi = &workerInfo{firstSeen: now}
		c.workers[name] = wi
	}
	wi.lastSeen = now
	return wi
}

// ReportWorker records contact from the named worker and mirrors its
// metrics snapshot — obs.Registry.Snapshot flattened to name → value —
// into the coordinator's registry as per-worker-labelled gauge families:
// a worker-side cachecraft_sim_runs_total re-exports here as
// cachecraft_worker_sim_runs_total{worker="name"}. Gauges are Set, not
// added, so repeated snapshots are idempotent and the coordinator's
// /metrics always shows each worker's latest values. Snapshot entries
// that carry label strings (they contain '{') or are not legal
// Prometheus identifiers are skipped. A nil snapshot reports liveness
// only.
func (c *Coordinator) ReportWorker(name string, snap map[string]uint64) {
	if name == "" {
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.touchWorkerLocked(name, now)
	c.mu.Unlock()
	for metric, v := range snap {
		fam := "cachecraft_worker_" + strings.TrimPrefix(metric, "cachecraft_")
		if !validMetricName(fam) {
			continue
		}
		// GaugeVec re-registration dedupes by name, so this is a cheap
		// map lookup after the first snapshot.
		c.opt.Registry.GaugeVec(fam,
			"Worker-reported metric, re-exported per worker by the coordinator.",
			"worker").With(name).Set(int64(v))
	}
}

// validMetricName reports whether s is a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Status assembles the point-in-time cluster picture behind
// GET /v1/cluster/status: cell counts by lifecycle state, live lease
// count, and one row per worker ever heard from, sorted by name. A
// worker is live while its last contact is within three lease TTLs —
// past one TTL its leases are already being reaped, and past three it is
// presumed gone rather than merely slow.
func (c *Coordinator) Status() StatusResponse {
	resp := c.status()
	c.flushJournal()
	return resp
}

func (c *Coordinator) status() StatusResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	t := c.tallyLocked(now)

	resp := StatusResponse{
		UptimeMs:             now.Sub(c.start).Milliseconds(),
		PendingCells:         t.pending,
		LeasedCells:          t.leased,
		DoneCells:            t.done,
		FailedCells:          t.failed,
		QuarantinedCells:     len(t.quarantined),
		ActiveLeases:         t.leases,
		JournalReplayedCells: c.replayed,
		Workers:              []WorkerStatus{},
		Quarantined:          []QuarantinedCell{},
	}
	for _, cs := range t.quarantined {
		resp.Quarantined = append(resp.Quarantined, QuarantinedCell{
			Fingerprint: cs.cell.Fingerprint,
			Workload:    cs.cell.Workload,
			Scheme:      cs.cell.Scheme,
			Error:       cs.errMsg,
			History:     cs.historyLines(),
		})
	}
	sort.Slice(resp.Quarantined, func(i, j int) bool {
		a, b := resp.Quarantined[i], resp.Quarantined[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		return a.Fingerprint < b.Fingerprint
	})

	for name, wi := range c.workers {
		ws := WorkerStatus{
			Name:           name,
			Live:           c.liveLocked(wi, now),
			LastSeenMs:     now.Sub(wi.lastSeen).Milliseconds(),
			CellsCompleted: wi.completed,
		}
		if h, ok := t.holders[name]; ok {
			ws.ActiveLeases = h.leases
			ws.OldestLeaseMs = now.Sub(h.oldest).Milliseconds()
		}
		if alive := now.Sub(wi.firstSeen).Seconds(); alive > 0 && wi.completed > 0 {
			ws.CellsPerSec = float64(wi.completed) / alive
		}
		resp.Workers = append(resp.Workers, ws)
	}
	sort.Slice(resp.Workers, func(i, j int) bool {
		return resp.Workers[i].Name < resp.Workers[j].Name
	})
	return resp
}

// tally is one counting pass over the coordinator's cells, leases and
// workers: the numbers behind both GET /v1/cluster/status and the
// cachecraft_cluster_* gauges.
type tally struct {
	pending, leased, done, failed int
	quarantined                   []*cellState
	leases                        int               // live leases
	holders                       map[string]holder // live leases by worker
	known, live                   int               // workers ever heard from; within the liveness horizon
}

type holder struct {
	leases int
	oldest time.Time // grant time of the worker's oldest live lease
}

// tallyLocked counts without reaping or journaling, so sampling a gauge
// never changes what it samples.
func (c *Coordinator) tallyLocked(now time.Time) tally {
	t := tally{leases: len(c.leases), holders: make(map[string]holder, len(c.leases)), known: len(c.workers)}
	for _, cs := range c.cells {
		switch {
		case cs.done && cs.errMsg == "":
			t.done++
		case cs.done && cs.quarantined:
			t.quarantined = append(t.quarantined, cs)
		case cs.done:
			t.failed++
		case cs.lease != "":
			t.leased++
		default:
			t.pending++
		}
	}
	for _, l := range c.leases {
		h := t.holders[l.worker]
		h.leases++
		if h.oldest.IsZero() || l.granted.Before(h.oldest) {
			h.oldest = l.granted
		}
		t.holders[l.worker] = h
	}
	for _, wi := range c.workers {
		if c.liveLocked(wi, now) {
			t.live++
		}
	}
	return t
}

// liveLocked reports whether a worker was heard from within the liveness
// horizon of three lease TTLs (see Status).
func (c *Coordinator) liveLocked(wi *workerInfo, now time.Time) bool {
	return now.Sub(wi.lastSeen) <= 3*c.opt.LeaseTTL
}

// sample is a gauge sampler over one tally.
func (c *Coordinator) sample(f func(tally) int) func() float64 {
	return func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(f(c.tallyLocked(time.Now())))
	}
}

// failAttemptLocked charges one failed dispatch (worker-reported error or
// lease expiry) against a cell and decides its future: quarantine a
// suspected poison cell, re-queue with backoff, or fail terminally once
// the budget is gone. crashLike marks lease expiries — the worker vanished
// instead of reporting an error — which is the only failure shape the
// quarantine rule counts.
func (c *Coordinator) failAttemptLocked(cs *cellState, worker, cause string, crashLike bool, now time.Time) {
	cs.lease = ""
	cs.attempts++
	if cause == "" {
		cause = "unspecified worker failure"
	}
	if worker == "" {
		worker = "unknown"
	}
	cs.history = append(cs.history, failEvent{
		worker:    worker,
		crashLike: crashLike,
		line:      worker + ": " + cause,
	})
	if streak, workers := c.poisonStreakLocked(cs); streak >= c.opt.QuarantineAfter && workers >= 2 {
		cs.quarantined = true
		c.logf("cell %s quarantined after %d crash-like failures across %d workers",
			cs.cell.Fingerprint, streak, workers)
		c.finishLocked(cs, nil, "",
			fmt.Sprintf("cluster: cell quarantined after %d consecutive crash-like failures (suspected poison cell)", streak), "")
		return
	}
	if cs.attempts >= c.opt.MaxAttempts {
		c.finishLocked(cs, nil, "",
			fmt.Sprintf("cluster: cell failed after %d attempts: %s", cs.attempts, cause), "")
		return
	}
	cs.notBefore = now.Add(c.backoff(cs.attempts))
	c.enqueueLocked(cs)
	c.m.retried.Inc()
}

// poisonStreakLocked measures the cell's trailing run of crash-like
// failures: its length and how many distinct workers it spans. A streak
// that long across two or more workers is the poison-cell signature —
// the cell, not any particular worker or host, is what keeps dying. The
// two-worker floor keeps one flapping host from condemning a healthy
// cell; on a single-worker fleet the retry budget (MaxAttempts) remains
// the backstop.
func (c *Coordinator) poisonStreakLocked(cs *cellState) (streak, workers int) {
	seen := make(map[string]bool)
	for i := len(cs.history) - 1; i >= 0; i-- {
		ev := cs.history[i]
		if !ev.crashLike {
			break
		}
		streak++
		seen[ev.worker] = true
	}
	return streak, len(seen)
}

// backoff is capped exponential: base, 2·base, 4·base, ... up to cap.
func (c *Coordinator) backoff(attempts int) time.Duration {
	d := c.opt.BackoffBase
	for i := 1; i < attempts && d < c.opt.BackoffCap; i++ {
		d *= 2
	}
	if d > c.opt.BackoffCap {
		d = c.opt.BackoffCap
	}
	return d
}

// maybeReleaseLocked retires a lease whose every cell is finished or
// re-assigned, so the worker-lease gauge tracks live claims, not history.
func (c *Coordinator) maybeReleaseLocked(l *lease) {
	for _, fp := range l.cells {
		cs := c.cells[fp]
		if cs == nil || cs.done {
			continue
		}
		if cs.lease == l.id {
			return // still holding live work
		}
	}
	delete(c.leases, l.id)
	c.m.workerLeases.With(l.worker).Add(-1)
}

// reapLocked expires overdue leases: each unfinished cell they held is
// charged one attempt and re-queued (or terminally failed).
func (c *Coordinator) reapLocked(now time.Time) {
	for id, l := range c.leases {
		if !l.deadline.Before(now) {
			continue
		}
		c.m.expired.Inc()
		c.logf("lease %s (worker %s) expired; re-queueing its cells", id, l.worker)
		for _, fp := range l.cells {
			cs := c.cells[fp]
			if cs == nil || cs.done {
				continue
			}
			if cs.lease == id {
				c.failAttemptLocked(cs, l.worker, "lease expired (worker lost or stalled)", true, now)
			}
		}
		delete(c.leases, id)
		c.m.workerLeases.With(l.worker).Add(-1)
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logger != nil {
		c.opt.Logger.Info("cluster: " + fmt.Sprintf(format, args...))
	}
}
