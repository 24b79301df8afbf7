// End-to-end chaos harness: the acceptance tests for the fault-injection
// layer. Each test stands up the real stack (serve + coordinator +
// workers, or runner + store) with an armed injector and pins the
// system-level recovery contract — above all that sweep output stays
// byte-identical to a fault-free run, because every recovery mechanism
// (lease re-dispatch, store degradation, retry budgets) falls back to
// the deterministic simulator.
package chaos_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cachecraft/internal/bench"
	"cachecraft/internal/chaos"
	"cachecraft/internal/cluster"
	"cachecraft/internal/config"
	"cachecraft/internal/obs"
	"cachecraft/internal/serve"
	"cachecraft/internal/store"
)

// quickBase mirrors the cluster e2e suite: the scaled-down config with
// enough accesses that scheme differences show up in results.
func quickBase() config.GPU {
	b := config.Quick()
	b.AccessesPerSM = 300
	return b
}

func newChaosCluster(t *testing.T, base config.GPU, copt cluster.Options) (*httptest.Server, *obs.Registry) {
	t.Helper()
	copt.Base = base
	if copt.Registry == nil {
		copt.Registry = obs.NewRegistry()
	}
	co := cluster.New(copt)
	t.Cleanup(func() { co.Close() })
	srv := serve.New(serve.Options{
		Base:        base,
		MaxInFlight: 4,
		MaxQueue:    8,
		Registry:    copt.Registry,
		Coordinator: co,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, copt.Registry
}

func startChaosWorker(t *testing.T, url, name string, inj *chaos.Injector) {
	t.Helper()
	r := bench.NewRunner(config.Default())
	r.SetWorkers(2)
	// Batch of 1: a chaos crash abandons the whole lease, so single-cell
	// leases keep a poisoned cell's crashes from charging crash-like
	// failures to innocent co-leased cells (which could quarantine them).
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		Coordinator: url,
		Name:        name,
		Runner:      r,
		Batch:       1,
		Chaos:       inj,
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
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Errorf("worker %s did not stop", name)
		}
	})
}

// runExperiment renders the fig4 experiment through the given runner and
// returns its exact stdout bytes.
func runExperiment(t *testing.T, r *bench.Runner, base config.GPU) []byte {
	t.Helper()
	exp, err := bench.ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := exp.Run(r, base, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepByteIdenticalUnderRandomizedFaults is the harness's headline
// guarantee: a full experiment run through a cluster whose workers
// crash, report errors, stall, and drop uploads at seed-derived random
// points produces output byte-identical to a fault-free local run —
// for every seed. Failures cost retries and wall time, never answers.
func TestSweepByteIdenticalUnderRandomizedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed cluster runs are slow")
	}
	base := quickBase()
	lr := bench.NewRunner(base)
	lr.SetWorkers(4)
	want := runExperiment(t, lr, base)

	for _, seed := range []uint64{1, 7, 42, 1009, 31337} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ts, _ := newChaosCluster(t, base, cluster.Options{
				LeaseTTL:    150 * time.Millisecond,
				MaxAttempts: 20,
			})
			// Two workers with independent fault streams derived from the
			// test seed: crashes (abandon the lease entirely), reported
			// errors, upload partitions, and execution latency. Limits
			// bound each burst so the sweep always drains.
			mkInj := func(s uint64) *chaos.Injector {
				return chaos.New(s,
					chaos.Rule{Site: chaos.SiteWorkerExec, Kind: chaos.KindCrash, P: 0.2, Limit: 3},
					chaos.Rule{Site: chaos.SiteWorkerExec, Kind: chaos.KindError, P: 0.2, Limit: 4},
					chaos.Rule{Site: chaos.SiteWorkerExec, Kind: chaos.KindLatency, P: 0.3, Delay: 3 * time.Millisecond},
					chaos.Rule{Site: chaos.SiteWorkerComplete, Kind: chaos.KindPartition, P: 0.25, Limit: 4},
					chaos.Rule{Site: chaos.SiteWorkerHeartbeat, Kind: chaos.KindError, P: 0.2, Limit: 6},
				)
			}
			injs := []*chaos.Injector{mkInj(seed), mkInj(seed ^ 0xdeadbeef)}
			startChaosWorker(t, ts.URL, "cw1", injs[0])
			startChaosWorker(t, ts.URL, "cw2", injs[1])

			client := cluster.NewClient(ts.URL)
			if err := client.Ping(context.Background()); err != nil {
				t.Fatal(err)
			}
			rr := bench.NewRunner(base)
			rr.SetWorkers(4)
			rr.SetRemote(client)
			got := runExperiment(t, rr, base)

			if !bytes.Equal(want, got) {
				t.Fatalf("seed %d: chaos run output differs from fault-free run:\n--- want ---\n%s\n--- got ---\n%s",
					seed, want, got)
			}
			var fired uint64
			for _, in := range injs {
				fired += in.InjectedTotal()
			}
			t.Logf("seed %d: %d faults injected, output byte-identical", seed, fired)
		})
	}
}

// TestPoisonCellQuarantinedEndToEnd poisons one specific cell — every
// worker that leases it dies — and checks the full quarantine surface:
// the sweep stream's error line and trailer, /v1/cluster/status's
// quarantined rows with per-worker failure history, and the
// cachecraft_cells_quarantined_total metric. The healthy cell in the
// same sweep still completes.
func TestPoisonCellQuarantinedEndToEnd(t *testing.T) {
	base := quickBase()
	poison := cluster.NewCell(base, "stream", "cachecraft")
	// The TTL must comfortably exceed heartbeat round-trip time even
	// under the race detector, or a slow heartbeat forges a crash-like
	// failure on the healthy cell.
	ts, reg := newChaosCluster(t, base, cluster.Options{
		LeaseTTL:        300 * time.Millisecond,
		MaxAttempts:     30,
		QuarantineAfter: 2,
	})
	die := chaos.Rule{Site: chaos.SiteWorkerExec, Kind: chaos.KindCrash, P: 1, Match: poison.Fingerprint}
	startChaosWorker(t, ts.URL, "pw1", chaos.New(1, die))
	startChaosWorker(t, ts.URL, "pw2", chaos.New(2, die))

	resp, err := http.Post(ts.URL+"/v1/cluster/sweep", "application/json",
		strings.NewReader(`{"workloads":["stream"],"schemes":["none","cachecraft"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var (
		records  int
		errLine  string
		trailerQ = -1
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Done        bool   `json:"done"`
			Quarantined int    `json:"quarantined"`
			Scheme      string `json:"scheme"`
			Error       string `json:"error"`
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Done:
			trailerQ = line.Quarantined
		case line.Error != "":
			errLine = line.Error
		case line.Fingerprint != "":
			records++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if records != 1 {
		t.Fatalf("healthy cell records = %d, want 1", records)
	}
	if !strings.Contains(errLine, "quarantined") {
		t.Fatalf("poison cell error %q does not mention quarantine", errLine)
	}
	if trailerQ != 1 {
		t.Fatalf("trailer quarantined = %d, want 1", trailerQ)
	}

	sresp, err := http.Get(ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st cluster.StatusResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.QuarantinedCells != 1 || len(st.Quarantined) != 1 {
		t.Fatalf("status quarantined = %d rows %d, want 1/1", st.QuarantinedCells, len(st.Quarantined))
	}
	q := st.Quarantined[0]
	if q.Fingerprint != poison.Fingerprint || q.Workload != "stream" || q.Scheme != "cachecraft" {
		t.Fatalf("quarantined row = %+v", q)
	}
	workers := map[string]bool{}
	for _, h := range q.History {
		name, _, ok := strings.Cut(h, ":")
		if !ok {
			t.Fatalf("history line %q not worker: cause", h)
		}
		workers[name] = true
	}
	if len(workers) < 2 {
		t.Fatalf("history %v names %d workers, want >= 2 (distinct-worker rule)", q.History, len(workers))
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "cachecraft_cells_quarantined_total 1") {
		t.Fatalf("metrics missing quarantine count:\n%s", sb.String())
	}
}

// TestServeChaosFaultsOneEndpoint checks the serve.request site: a rule
// matched to one path 503s (or delays) that path only, leaving the rest
// of the API — and /healthz in particular — untouched.
func TestServeChaosFaultsOneEndpoint(t *testing.T) {
	srv := serve.New(serve.Options{
		Base:        quickBase(),
		MaxInFlight: 2,
		Chaos: chaos.New(3,
			chaos.Rule{Site: chaos.SiteServeRequest, Kind: chaos.KindError, P: 1, Match: "/v1/simulate"}),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"workload":"stream","scheme":"none"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted endpoint returned %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d under targeted chaos, want 200", hresp.StatusCode)
	}
}

// TestSickDiskDegradesStoreNotSweep pins the circuit-breaker contract at
// the sweep level: with a store whose every write fails (ENOSPC stand-in)
// the breaker opens after its threshold and the sweep finishes entirely
// on the simulator — stdout byte-identical to a storeless run, no error
// surfaced to the user at all.
func TestSickDiskDegradesStoreNotSweep(t *testing.T) {
	base := quickBase()
	plain := bench.NewRunner(base)
	plain.SetWorkers(4)
	want := runExperiment(t, plain, base)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetBreaker(3, time.Hour)
	st.SetChaos(chaos.New(9,
		chaos.Rule{Site: chaos.SiteStorePut, Kind: chaos.KindError, P: 1}))
	r := bench.NewRunner(base)
	r.SetWorkers(4)
	r.SetStore(st)
	got := runExperiment(t, r, base)

	if !bytes.Equal(want, got) {
		t.Fatalf("sick-disk run output differs from storeless run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if s := st.BreakerState(); s != store.BreakerOpen {
		t.Fatalf("breaker state = %d after an all-errors disk, want open (%d)", s, store.BreakerOpen)
	}
}

// TestCorruptionBurstRecomputesEverything is the sick-disk satellite: a
// warm store suffers a corruption burst (every envelope has bytes
// flipped), and the next run treats every cell as a miss, recomputes,
// and produces byte-identical output — corruption is never an error,
// only lost warmth.
func TestCorruptionBurstRecomputesEverything(t *testing.T) {
	base := quickBase()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := bench.NewRunner(base)
	cold.SetWorkers(4)
	cold.SetStore(st)
	want := runExperiment(t, cold, base)
	if cold.Stats().Runs == 0 {
		t.Fatal("cold run simulated nothing")
	}

	// Flip one byte in the middle of every stored envelope.
	corrupted := 0
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raw[len(raw)/2] ^= 0x5a
		corrupted++
		return os.WriteFile(path, raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no envelopes on disk to corrupt")
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := bench.NewRunner(base)
	warm.SetWorkers(4)
	warm.SetStore(st2)
	got := runExperiment(t, warm, base)
	if !bytes.Equal(want, got) {
		t.Fatalf("post-corruption output differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	stats := warm.Stats()
	if stats.StoreHits != 0 {
		t.Fatalf("%d store hits from a fully corrupted store", stats.StoreHits)
	}
	if stats.Runs == 0 {
		t.Fatal("nothing recomputed after the corruption burst")
	}
}
