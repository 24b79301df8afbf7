// End-to-end coverage for the fleet-observability surface added with the
// probe/timeline PR: GET /v1/cluster/status, the known/live worker
// gauges, and the per-worker-labelled cachecraft_worker_* families the
// coordinator re-exports from worker snapshots — including their
// behavior when a worker dies mid-lease.
package cluster_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"cachecraft/internal/bench"
	"cachecraft/internal/cluster"
	"cachecraft/internal/config"
	"cachecraft/internal/obs"
)

// startWorkerWithRegistry is startWorker plus a metrics registry, so the
// worker's snapshots ride its lease polls and heartbeats.
func startWorkerWithRegistry(t *testing.T, url, name string) (stop func()) {
	t.Helper()
	r := bench.NewRunner(config.Default())
	r.SetWorkers(2)
	reg := obs.NewRegistry()
	bench.RegisterRunnerMetrics(reg, r)
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		Coordinator: url,
		Name:        name,
		Runner:      r,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	stop = func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

func getStatus(t *testing.T, url string) cluster.StatusResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("status content type %q", ct)
	}
	var st cluster.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func workerByName(st cluster.StatusResponse, name string) (cluster.WorkerStatus, bool) {
	for _, w := range st.Workers {
		if w.Name == name {
			return w, true
		}
	}
	return cluster.WorkerStatus{}, false
}

// TestClusterStatusEndToEnd drives a grid through a registry-carrying
// worker and checks the whole fleet-observability surface: the status
// JSON accounts for every cell and credits the worker's completions, the
// coordinator /metrics carries the known/live gauges and the re-exported
// per-worker families, and an idle worker (poll traffic only) is still
// visible.
func TestClusterStatusEndToEnd(t *testing.T) {
	ts, _ := newClusterServer(t, quickBase(), cluster.Options{}, nil)

	// Before any contact: empty fleet, zero cells, uptime ticking.
	st := getStatus(t, ts.URL)
	if len(st.Workers) != 0 || st.PendingCells+st.LeasedCells+st.DoneCells+st.FailedCells != 0 {
		t.Fatalf("fresh coordinator status = %+v", st)
	}

	startWorkerWithRegistry(t, ts.URL, "w1")
	resp := postSweep(t, ts.URL, `{"workloads":["stream","scan"],"schemes":["none","ecc-cache"]}`)
	defer resp.Body.Close()
	records, errLines, trailer := readStream(t, resp.Body)
	if len(records) != 4 || len(errLines) != 0 || trailer == nil {
		t.Fatalf("sweep: records=%v errs=%v trailer=%+v", records, errLines, trailer)
	}

	st = getStatus(t, ts.URL)
	if st.DoneCells != 4 || st.PendingCells != 0 || st.FailedCells != 0 {
		t.Fatalf("post-sweep status = %+v, want 4 done", st)
	}
	if st.UptimeMs < 0 {
		t.Fatalf("uptime = %d", st.UptimeMs)
	}
	w1, ok := workerByName(st, "w1")
	if !ok {
		t.Fatalf("worker w1 missing from status: %+v", st.Workers)
	}
	if !w1.Live {
		t.Fatal("w1 not live immediately after completing a sweep")
	}
	if w1.CellsCompleted != 4 {
		t.Fatalf("w1 completed = %d, want 4", w1.CellsCompleted)
	}
	if w1.CellsPerSec <= 0 {
		t.Fatalf("w1 cells/sec = %v, want > 0", w1.CellsPerSec)
	}

	// The worker's registry snapshot rides its polls, so the coordinator
	// re-exports runner families labelled by worker. The poll loop runs
	// continuously; allow a poll cycle for the post-completion snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := metricsText(t, ts.URL)
		if strings.Contains(m, `cachecraft_worker_sim_runs_total{worker="w1"} 4`) &&
			strings.Contains(m, "cachecraft_cluster_known_workers 1") &&
			strings.Contains(m, "cachecraft_cluster_live_workers 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("per-worker families never appeared on /metrics:\n%s", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterStatusSurvivesWorkerChurn reuses the death drill: a victim
// leases cells with a metrics snapshot attached and dies silently. The
// status report must keep the victim (not live, lease reaped), keep its
// last-reported metric values on /metrics, and show the survivor both
// live and credited with the recovered cells.
func TestClusterStatusSurvivesWorkerChurn(t *testing.T) {
	const ttl = 100 * time.Millisecond
	ts, _ := newClusterServer(t, quickBase(), cluster.Options{
		LeaseTTL:    ttl,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
	}, nil)

	resp := postSweep(t, ts.URL, `{"workloads":["stream","scan"],"schemes":["none","ecc-cache"]}`)
	defer resp.Body.Close()

	// The victim leases at the protocol level — snapshot attached — and
	// dies on the spot: no heartbeat, no complete, a SIGKILLed process.
	var grant cluster.LeaseGrant
	deadline := time.Now().Add(5 * time.Second)
	for len(grant.Cells) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim never got a lease")
		}
		lr, err := http.Post(ts.URL+"/v1/cluster/lease", "application/json",
			strings.NewReader(`{"worker":"victim","max":2,"metrics":{"cachecraft_sim_runs_total":7}}`))
		if err != nil {
			t.Fatal(err)
		}
		if lr.StatusCode == http.StatusOK {
			if err := json.NewDecoder(lr.Body).Decode(&grant); err != nil {
				t.Fatal(err)
			}
		}
		io.Copy(io.Discard, lr.Body)
		lr.Body.Close()
		if len(grant.Cells) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}

	st := getStatus(t, ts.URL)
	if v, ok := workerByName(st, "victim"); !ok || !v.Live || v.ActiveLeases != 1 {
		t.Fatalf("victim right after leasing = %+v (found %v)", v, ok)
	}

	startWorkerWithRegistry(t, ts.URL, "survivor")
	records, errLines, trailer := readStream(t, resp.Body)
	if len(records) != 4 || len(errLines) != 0 || trailer == nil || trailer.Errors != 0 {
		t.Fatalf("recovery sweep: records=%v errs=%v trailer=%+v", records, errLines, trailer)
	}

	// Past three lease TTLs of silence the victim drops out of liveness —
	// but stays known, with its last metric snapshot still exported.
	deadline = time.Now().Add(10 * time.Second)
	for {
		st = getStatus(t, ts.URL)
		v, ok := workerByName(st, "victim")
		if !ok {
			t.Fatalf("victim forgotten: %+v", st.Workers)
		}
		if !v.Live && v.ActiveLeases == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim still live after %s of silence: %+v", 3*ttl, v)
		}
		time.Sleep(20 * time.Millisecond)
	}
	sv, ok := workerByName(st, "survivor")
	if !ok || !sv.Live {
		t.Fatalf("survivor = %+v (found %v)", sv, ok)
	}
	if sv.CellsCompleted != 4 {
		t.Fatalf("survivor completed = %d, want all 4 recovered cells", sv.CellsCompleted)
	}
	if st.DoneCells != 4 || st.FailedCells != 0 {
		t.Fatalf("cells after recovery = %+v", st)
	}

	m := metricsText(t, ts.URL)
	if !strings.Contains(m, `cachecraft_worker_sim_runs_total{worker="victim"} 7`) {
		t.Fatalf("victim's last snapshot gone from /metrics:\n%s", m)
	}
	if !strings.Contains(m, `cachecraft_worker_sim_runs_total{worker="survivor"}`) {
		t.Fatalf("survivor has no re-exported families:\n%s", m)
	}
	if !strings.Contains(m, "cachecraft_cluster_known_workers 2") ||
		!strings.Contains(m, "cachecraft_cluster_live_workers 1") {
		t.Fatalf("known/live gauges wrong after churn:\n%s", m)
	}
}
