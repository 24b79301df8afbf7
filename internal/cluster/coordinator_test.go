package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
	"cachecraft/internal/obs"
	"cachecraft/internal/sim"
	"cachecraft/internal/store"
	"cachecraft/internal/version"
)

// newTestCoordinator builds a coordinator with fast timers so expiry and
// backoff are observable in test time, not operator time.
func newTestCoordinator(t *testing.T, opt Options) *Coordinator {
	t.Helper()
	if opt.LeaseTTL == 0 {
		opt.LeaseTTL = 100 * time.Millisecond
	}
	if opt.BackoffBase == 0 {
		opt.BackoffBase = time.Millisecond
	}
	if opt.BackoffCap == 0 {
		opt.BackoffCap = 5 * time.Millisecond
	}
	if opt.Base.NumSMs == 0 {
		opt.Base = config.Quick()
	}
	c := New(opt)
	t.Cleanup(c.Close)
	return c
}

func testCell(scheme string) Cell {
	return NewCell(config.Quick(), "stream", scheme)
}

func resultFor(cell Cell) CellResult {
	return CellResult{Record: &store.Record{
		Fingerprint: cell.Fingerprint,
		Sim:         version.String(),
		Workload:    cell.Workload,
		Scheme:      cell.Scheme,
		Result:      gpu.Result{Workload: cell.Workload, Scheme: cell.Scheme, Cycles: sim.Cycle(1234)},
	}}
}

func mustWait(t *testing.T, c *Coordinator, fp string) Outcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := c.Wait(ctx, fp)
	if err != nil {
		t.Fatalf("Wait(%s): %v", fp, err)
	}
	return out
}

func TestSubmitLeaseComplete(t *testing.T) {
	c := newTestCoordinator(t, Options{})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(cell); err != nil {
		t.Fatalf("re-submitting a known cell must join, not error: %v", err)
	}

	grant := c.Lease("w1", 8)
	if grant == nil || len(grant.Cells) != 1 {
		t.Fatalf("grant = %+v, want 1 cell", grant)
	}
	if grant.Cells[0].Fingerprint != cell.Fingerprint {
		t.Fatalf("leased %s, want %s", grant.Cells[0].Fingerprint, cell.Fingerprint)
	}
	resp := c.Complete(CompleteRequest{LeaseID: grant.LeaseID, Worker: "w1",
		Results: []CellResult{resultFor(cell)}})
	if resp.Accepted != 1 || resp.Ignored != 0 {
		t.Fatalf("complete = %+v", resp)
	}
	out := mustWait(t, c, cell.Fingerprint)
	if out.Err != "" || len(out.Body) == 0 || out.Sum == "" {
		t.Fatalf("outcome = %+v", out)
	}

	// A second worker pushing the same cell later loses quietly.
	resp = c.Complete(CompleteRequest{LeaseID: "stale", Worker: "w2",
		Results: []CellResult{resultFor(cell)}})
	if resp.Accepted != 0 || resp.Ignored != 1 {
		t.Fatalf("duplicate complete = %+v", resp)
	}
}

func TestSubmitSkipsStoreResidentCells(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cell := testCell("none")
	rec := *resultFor(cell).Record
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	c := newTestCoordinator(t, Options{Store: st})
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	// Completes without any worker existing.
	out := mustWait(t, c, cell.Fingerprint)
	if out.Err != "" || len(out.Body) == 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if grant := c.Lease("w1", 8); grant != nil {
		t.Fatalf("store-resident cell was dispatched: %+v", grant)
	}
}

func TestCompleteRejectsForeignRecords(t *testing.T) {
	c := newTestCoordinator(t, Options{})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	grant := c.Lease("w1", 1)
	if grant == nil {
		t.Fatal("no grant")
	}
	stale := resultFor(cell)
	stale.Record.Sim = "cachecraft@r0-stale"
	wrongWL := resultFor(cell)
	wrongWL.Record.Workload = "scan"
	resp := c.Complete(CompleteRequest{LeaseID: grant.LeaseID, Worker: "w1",
		Results: []CellResult{stale, wrongWL, {}}})
	if resp.Accepted != 0 || resp.Ignored != 3 {
		t.Fatalf("complete = %+v, want all ignored", resp)
	}
	select {
	case <-time.After(10 * time.Millisecond):
	case <-func() chan struct{} { c.mu.Lock(); defer c.mu.Unlock(); return c.cells[cell.Fingerprint].doneCh }():
		t.Fatal("cell completed from a rejected record")
	}
}

// TestLeaseExpiryRequeuesWithBackoff: a dead worker's lease expires, the
// cell is re-queued (after its backoff) and re-granted to another worker,
// and an error the dead worker pushes late — under the expired lease —
// does not consume a second attempt from the retry budget.
func TestLeaseExpiryRequeuesWithBackoff(t *testing.T) {
	c := newTestCoordinator(t, Options{LeaseTTL: 50 * time.Millisecond, MaxAttempts: 2})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	g1 := c.Lease("dead", 1)
	if g1 == nil {
		t.Fatal("no grant")
	}
	// No heartbeat: wait out TTL + backoff, then poll until re-granted.
	var g2 *LeaseGrant
	deadline := time.Now().Add(5 * time.Second)
	for g2 == nil {
		if time.Now().After(deadline) {
			t.Fatal("expired cell never re-granted")
		}
		time.Sleep(10 * time.Millisecond)
		g2 = c.Lease("live", 1)
	}
	if g2.LeaseID == g1.LeaseID {
		t.Fatal("same lease re-granted")
	}

	// The dead worker wakes up and reports failure under its old lease:
	// the reaper already charged that attempt, so this must not push the
	// cell to its MaxAttempts=2 terminal failure.
	resp := c.Complete(CompleteRequest{LeaseID: g1.LeaseID, Worker: "dead",
		Results: []CellResult{{Fingerprint: cell.Fingerprint, Error: "boom"}}})
	if resp.Accepted != 0 || resp.Ignored != 1 {
		t.Fatalf("late error = %+v, want ignored", resp)
	}

	resp = c.Complete(CompleteRequest{LeaseID: g2.LeaseID, Worker: "live",
		Results: []CellResult{resultFor(cell)}})
	if resp.Accepted != 1 {
		t.Fatalf("live complete = %+v", resp)
	}
	if out := mustWait(t, c, cell.Fingerprint); out.Err != "" {
		t.Fatalf("cell failed despite a successful retry: %q", out.Err)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	c := newTestCoordinator(t, Options{MaxAttempts: 2})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	for attempt := 1; ; attempt++ {
		var grant *LeaseGrant
		deadline := time.Now().Add(5 * time.Second)
		for grant == nil {
			if time.Now().After(deadline) {
				t.Fatalf("attempt %d never granted", attempt)
			}
			grant = c.Lease("w1", 1)
			if grant == nil {
				time.Sleep(2 * time.Millisecond) // backoff gate
			}
		}
		resp := c.Complete(CompleteRequest{LeaseID: grant.LeaseID, Worker: "w1",
			Results: []CellResult{{Fingerprint: cell.Fingerprint, Error: "synthetic failure"}}})
		if resp.Accepted != 1 {
			t.Fatalf("attempt %d: complete = %+v", attempt, resp)
		}
		if attempt == 2 {
			break
		}
	}
	out := mustWait(t, c, cell.Fingerprint)
	if out.Err == "" || !strings.Contains(out.Err, "after 2 attempts") ||
		!strings.Contains(out.Err, "synthetic failure") {
		t.Fatalf("terminal outcome = %+v", out)
	}
	if grant := c.Lease("w1", 1); grant != nil {
		t.Fatalf("terminally failed cell re-granted: %+v", grant)
	}
}

func TestFailedCellWaitsOutBackoffBeforeRedispatch(t *testing.T) {
	c := newTestCoordinator(t, Options{
		MaxAttempts: 5, BackoffBase: 80 * time.Millisecond, BackoffCap: time.Second,
	})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	grant := c.Lease("w1", 1)
	if grant == nil {
		t.Fatal("no grant")
	}
	start := time.Now()
	c.Complete(CompleteRequest{LeaseID: grant.LeaseID, Worker: "w1",
		Results: []CellResult{{Fingerprint: cell.Fingerprint, Error: "transient"}}})
	if g := c.Lease("w1", 1); g != nil {
		t.Fatalf("cell re-granted %s after failure, inside its backoff window", time.Since(start))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := c.Lease("w1", 1); g != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cell never re-granted after backoff")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if waited := time.Since(start); waited < 80*time.Millisecond {
		t.Fatalf("re-granted after %s, before the 80ms backoff", waited)
	}
}

// TestOneHolderPerCell: while one worker holds a cell, neither another
// worker nor the holder itself can lease it again.
func TestOneHolderPerCell(t *testing.T) {
	c := newTestCoordinator(t, Options{LeaseTTL: 5 * time.Second})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	g1 := c.Lease("slow", 1)
	if g1 == nil {
		t.Fatal("no grant")
	}
	for _, w := range []string{"fast", "slow", "third"} {
		if g := c.Lease(w, 1); g != nil {
			t.Fatalf("held cell leased again to %q: %+v", w, g)
		}
	}
	if st := c.Status(); st.LeasedCells != 1 || st.PendingCells != 0 || st.ActiveLeases != 1 {
		t.Fatalf("status = %+v; want 1 leased, 0 pending, 1 active lease", st)
	}
	resp := c.Complete(CompleteRequest{LeaseID: g1.LeaseID, Worker: "slow",
		Results: []CellResult{resultFor(cell)}})
	if resp.Accepted != 1 || resp.Ignored != 0 {
		t.Fatalf("holder's push = %+v, want accepted", resp)
	}
	if out := mustWait(t, c, cell.Fingerprint); out.Err != "" {
		t.Fatalf("outcome = %+v", out)
	}
}

// TestExpiredLeaseFirstResultWins: once a lease expires its cell is
// re-leased to the second worker, and when both then push a record the
// first one pushed wins — even under the expired lease — and the other is
// ignored.
func TestExpiredLeaseFirstResultWins(t *testing.T) {
	c := newTestCoordinator(t, Options{})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	g1 := c.Lease("slow", 1)
	if g1 == nil {
		t.Fatal("no grant")
	}

	// No heartbeat: after the TTL and backoff the cell goes to "fast".
	var g2 *LeaseGrant
	deadline := time.Now().Add(5 * time.Second)
	for g2 == nil {
		if time.Now().After(deadline) {
			t.Fatal("expired cell never re-leased")
		}
		time.Sleep(10 * time.Millisecond)
		g2 = c.Lease("fast", 1)
	}
	if len(g2.Cells) != 1 || g2.Cells[0].Fingerprint != cell.Fingerprint || g2.LeaseID == g1.LeaseID {
		t.Fatalf("re-lease = %+v", g2)
	}

	resp := c.Complete(CompleteRequest{LeaseID: g1.LeaseID, Worker: "slow",
		Results: []CellResult{resultFor(cell)}})
	if resp.Accepted != 1 || resp.Ignored != 0 {
		t.Fatalf("first push (expired lease) = %+v, want accepted", resp)
	}
	resp = c.Complete(CompleteRequest{LeaseID: g2.LeaseID, Worker: "fast",
		Results: []CellResult{resultFor(cell)}})
	if resp.Accepted != 0 || resp.Ignored != 1 {
		t.Fatalf("second push = %+v, want ignored", resp)
	}
	if out := mustWait(t, c, cell.Fingerprint); out.Err != "" {
		t.Fatalf("outcome = %+v", out)
	}
	if st := c.Status(); st.DoneCells != 1 || st.LeasedCells != 0 || st.ActiveLeases != 0 {
		t.Fatalf("status after completion = %+v", st)
	}
}

// TestExpiredCellRetriesOnAnotherWorker: a cell whose lease expired on one
// worker is not handed back to that worker while another is live, so a
// cell that kills its holder reaches a second worker. (A lone worker does
// get its cell back: TestQuarantineNeedsDistinctWorkers.)
func TestExpiredCellRetriesOnAnotherWorker(t *testing.T) {
	c := newTestCoordinator(t, Options{LeaseTTL: 30 * time.Millisecond})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	if g := c.Lease("other", 1); g == nil {
		t.Fatal("no grant")
	} else if g2 := c.Lease("crashy", 1); g2 != nil {
		t.Fatalf("held cell leased twice: %+v", g2)
	}
	// "other" holds the cell and dies; once the lease expires "crashy"
	// gets it, and then dies too.
	var g *LeaseGrant
	deadline := time.Now().Add(5 * time.Second)
	for g == nil {
		if time.Now().After(deadline) {
			t.Fatal("expired cell never re-leased")
		}
		time.Sleep(5 * time.Millisecond)
		g = c.Lease("crashy", 1)
	}
	// After its own lease expires, "crashy" keeps polling but the retry
	// waits for "other", which is still live.
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		if g := c.Lease("crashy", 1); g != nil {
			t.Fatalf("cell handed back to the worker it died on: %+v", g)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if g := c.Lease("other", 1); g == nil || g.Cells[0].Fingerprint != cell.Fingerprint {
		t.Fatalf("retry on the other worker = %+v", g)
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	c := newTestCoordinator(t, Options{LeaseTTL: 60 * time.Millisecond})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	grant := c.Lease("w1", 1)
	if grant == nil {
		t.Fatal("no grant")
	}
	// Renew across several TTL windows; the cell must never re-queue.
	for i := 0; i < 6; i++ {
		time.Sleep(20 * time.Millisecond)
		if !c.Heartbeat(grant.LeaseID) {
			t.Fatalf("heartbeat %d: lease lost despite renewal", i)
		}
		if g := c.Lease("w2", 1); g != nil {
			t.Fatalf("heartbeated lease's cell re-granted: %+v", g)
		}
	}
	// Stop heartbeating: the lease expires and heartbeats start failing.
	time.Sleep(200 * time.Millisecond)
	if c.Heartbeat(grant.LeaseID) {
		t.Fatal("heartbeat succeeded on an expired lease")
	}
}

func TestWaitUnblocksOnContextAndClose(t *testing.T) {
	c := New(Options{Base: config.Quick()})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Wait(ctx, cell.Fingerprint); err != context.DeadlineExceeded {
		t.Fatalf("Wait under cancelled ctx: %v", err)
	}
	if _, err := c.Wait(context.Background(), "no-such-cell"); err == nil {
		t.Fatal("Wait on unknown cell must error")
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Wait(context.Background(), cell.Fingerprint)
		errCh <- err
	}()
	c.Close()
	select {
	case err := <-errCh:
		if err != ErrClosed {
			t.Fatalf("Wait after Close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock waiter")
	}
}

func TestSubmitValidation(t *testing.T) {
	c := newTestCoordinator(t, Options{})
	if err := c.Submit(Cell{Workload: "stream", Scheme: "none"}); err == nil {
		t.Fatal("cell without fingerprint accepted")
	}
	bad := NewCell(config.Quick(), "stream", "none")
	bad.Workload = "no-such-workload"
	if err := c.Submit(bad); err == nil {
		t.Fatal("inexpressible cell accepted")
	}
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, Options{Registry: reg})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	grant := c.Lease("w1", 1)
	if grant == nil {
		t.Fatal("no grant")
	}
	c.Complete(CompleteRequest{LeaseID: grant.LeaseID, Worker: "w1",
		Results: []CellResult{resultFor(cell)}})
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"cachecraft_cluster_cells_queued_total 1",
		"cachecraft_cluster_cells_leased_total 1",
		`cachecraft_cluster_cells_completed_total{worker="w1"} 1`,
		`cachecraft_cluster_worker_active_leases{worker="w1"} 0`,
		"cachecraft_cluster_pending_cells 0",
		"cachecraft_cluster_leased_cells 0",
		"cachecraft_sweep_cell_errors_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestOversizeBodiesRejected: every coordinator endpoint that reads a
// body refuses one past MaxBodyBytes with 413, even when its prefix is a
// valid request, so it submits no cell, grants no lease and completes
// nothing.
func TestOversizeBodiesRejected(t *testing.T) {
	c := newTestCoordinator(t, Options{LeaseTTL: time.Minute})
	mux := http.NewServeMux()
	c.Register(mux)
	leased, queued := testCell("none"), testCell("inline-naive")
	for _, cell := range []Cell{leased, queued} {
		if err := c.Submit(cell); err != nil {
			t.Fatal(err)
		}
	}
	grant := c.Lease("w0", 1)
	if grant == nil || len(grant.Cells) != 1 {
		t.Fatalf("lease = %+v, want one cell", grant)
	}
	complete, err := json.Marshal(CompleteRequest{LeaseID: grant.LeaseID, Worker: "w0",
		Results: []CellResult{resultFor(grant.Cells[0])}})
	if err != nil {
		t.Fatal(err)
	}
	// Each body is a valid request whose closing brace follows a padding
	// field that takes it past the bound.
	pad := `,"pad":"` + strings.Repeat("x", MaxBodyBytes) + `"}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/cluster/sweep", `{"workloads":["gemm"],"schemes":["none"]` + pad},
		{"/v1/cluster/lease", `{"worker":"w1","max":4` + pad},
		{"/v1/cluster/complete", strings.TrimSuffix(string(complete), "}") + pad},
		{"/v1/cluster/heartbeat", `{"lease_id":"` + grant.LeaseID + `","worker":"w0"` + pad},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)).WithContext(ctx))
		cancel()
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", tc.path, rec.Code)
		}
	}
	st := c.Status()
	if st.PendingCells != 1 || st.LeasedCells != 1 || st.DoneCells != 0 || st.ActiveLeases != 1 {
		t.Fatalf("after oversize requests: %d pending, %d leased, %d done, %d leases; want 1, 1, 0, 1",
			st.PendingCells, st.LeasedCells, st.DoneCells, st.ActiveLeases)
	}
}
