// End-to-end tests for the sweep cluster: a real serve.Server with the
// coordinator mounted, real Workers polling over HTTP, and the client
// paths (streaming sweep, bench.Remote) driven against them. This is an
// external test package because internal/serve imports internal/cluster.
package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cachecraft/internal/bench"
	"cachecraft/internal/cluster"
	"cachecraft/internal/config"
	"cachecraft/internal/obs"
	"cachecraft/internal/serve"
	"cachecraft/internal/store"
)

func quickBase() config.GPU {
	cfg := config.Quick()
	cfg.AccessesPerSM = 300
	return cfg
}

// newClusterServer stands up a serve.Server with the coordinator mounted,
// exactly as `cachecraft-serve -coordinator` wires it.
func newClusterServer(t *testing.T, base config.GPU, copt cluster.Options, st *store.Store) (*httptest.Server, *cluster.Coordinator) {
	t.Helper()
	copt.Base = base
	copt.Store = st
	if copt.Registry == nil {
		copt.Registry = obs.NewRegistry()
	}
	co := cluster.New(copt)
	t.Cleanup(co.Close)
	srv := serve.New(serve.Options{
		Base: base, Store: st, MaxInFlight: 4, MaxQueue: 8,
		Registry: copt.Registry, Coordinator: co,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, co
}

// startWorker launches an in-process Worker against the coordinator URL
// and returns a stop function that cancels it and waits for exit —
// cancelling mid-lease is exactly how the tests model a worker dying.
func startWorker(t *testing.T, url, name string) (stop func()) {
	t.Helper()
	r := bench.NewRunner(config.Default())
	r.SetWorkers(2)
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		Coordinator: url,
		Name:        name,
		Runner:      r,
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

type streamLine struct {
	Done        bool   `json:"done"`
	Cells       int    `json:"cells"`
	Errors      int    `json:"errors"`
	Error       string `json:"error"`
	Workload    string `json:"workload"`
	Scheme      string `json:"scheme"`
	Fingerprint string `json:"fingerprint"`
}

// readStream consumes a cluster sweep response: record lines and error
// lines keyed by workload/scheme, plus the trailer (nil if absent).
func readStream(t *testing.T, body io.Reader) (records, errLines map[string]string, trailer *streamLine) {
	t.Helper()
	records, errLines = map[string]string{}, map[string]string{}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if trailer != nil {
			t.Fatalf("line after trailer: %s", sc.Text())
		}
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
		}
		switch {
		case line.Done:
			tr := line
			trailer = &tr
		case line.Error != "":
			key := line.Workload + "/" + line.Scheme
			if _, dup := errLines[key]; dup {
				t.Fatalf("duplicate error line for %s", key)
			}
			errLines[key] = line.Error
		default:
			var rec store.Record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("bad record line: %v\n%s", err, sc.Text())
			}
			key := rec.Workload + "/" + rec.Scheme
			if _, dup := records[key]; dup {
				t.Fatalf("duplicate record for %s", key)
			}
			records[key] = rec.Fingerprint
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return records, errLines, trailer
}

func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

func postSweep(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/cluster/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestClusterSweepEndToEnd(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newClusterServer(t, quickBase(), cluster.Options{}, st)
	startWorker(t, ts.URL, "w1")
	startWorker(t, ts.URL, "w2")

	resp := postSweep(t, ts.URL, `{"workloads":["stream","scan"],"schemes":["none","ecc-cache"]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	records, errLines, trailer := readStream(t, resp.Body)
	if len(errLines) != 0 {
		t.Fatalf("error lines: %v", errLines)
	}
	if len(records) != 4 {
		t.Fatalf("records = %v, want 4 cells", records)
	}
	if trailer == nil || trailer.Cells != 4 || trailer.Errors != 0 {
		t.Fatalf("trailer = %+v", trailer)
	}
	// Every record becomes durable in the store under its fingerprint.
	// Persistence deliberately happens after the outcome is published (a
	// slow disk must not stall the stream), so allow it to trail briefly.
	for key, fp := range records {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, ok := st.Get(fp); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cell %s (fp %s) not persisted", key, fp)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// A second identical sweep is answered from the store: no new leases.
	m1 := metricsText(t, ts.URL)
	resp2 := postSweep(t, ts.URL, `{"workloads":["stream","scan"],"schemes":["none","ecc-cache"]}`)
	defer resp2.Body.Close()
	rec2, _, tr2 := readStream(t, resp2.Body)
	if len(rec2) != 4 || tr2 == nil {
		t.Fatalf("warm sweep: %v, %+v", rec2, tr2)
	}
	m2 := metricsText(t, ts.URL)
	pick := func(text, name string) string {
		for _, ln := range strings.Split(text, "\n") {
			if strings.HasPrefix(ln, name+" ") {
				return ln
			}
		}
		return name + " <absent>"
	}
	if a, b := pick(m1, "cachecraft_cluster_cells_leased_total"), pick(m2, "cachecraft_cluster_cells_leased_total"); a != b {
		t.Fatalf("warm sweep leased new cells: %q -> %q", a, b)
	}
}

// TestClusterSweepRejectsInvalidConfig: a sweep whose config override
// fails validation is answered 400 before any cell is submitted, so no
// worker is ever leased a geometry it cannot build — including one it
// could build only by allocating queue slots for a billion DRAM banks.
func TestClusterSweepRejectsInvalidConfig(t *testing.T) {
	ts, co := newClusterServer(t, quickBase(), cluster.Options{}, nil)
	for _, tc := range []struct {
		mut  func(*config.GPU)
		want string
	}{
		{func(g *config.GPU) { g.XbarReqBytesPerCycle = -1 }, "bisection"},
		{func(g *config.GPU) { g.DRAM.BanksPerChannel = 1 << 30 }, "banks"},
		{func(g *config.GPU) { g.L2.SizeBytes = 1 << 40 }, "L2 size"},
		{func(g *config.GPU) { g.Geometry.SectorBytes = 64 }, "sector/line sizes differ"},
		{func(g *config.GPU) { g.L2.Ways = 32 }, "ways exceeds"},
	} {
		bad := quickBase()
		tc.mut(&bad)
		body, err := json.Marshal(cluster.SweepRequest{
			Workloads: []string{"stream"}, Schemes: []string{"none"}, Config: &bad,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp := postSweep(t, ts.URL, string(body))
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.want, resp.StatusCode)
		}
		if !strings.Contains(string(msg), tc.want) {
			t.Fatalf("error does not name the bad field (%s): %s", tc.want, msg)
		}
		if st := co.Status(); st.PendingCells+st.LeasedCells+st.DoneCells+st.FailedCells != 0 {
			t.Fatalf("%s: rejected sweep submitted cells: %+v", tc.want, st)
		}
	}
}

// TestClusterSweepSurvivesWorkerDeath is the ISSUE's failure drill: a
// worker takes a lease and dies (no heartbeat, no complete). The lease
// expires, the cells re-queue, a healthy worker finishes them, and the
// client still sees exactly one line per cell plus the trailer — with the
// retries visible in /metrics and no cell errors counted.
func TestClusterSweepSurvivesWorkerDeath(t *testing.T) {
	ts, _ := newClusterServer(t, quickBase(), cluster.Options{
		LeaseTTL:    150 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
	}, nil)

	// Start the stream first so the cells exist to be leased.
	resp := postSweep(t, ts.URL, `{"workloads":["stream","scan"],"schemes":["none","ecc-cache"]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}

	// The "victim" leases two cells at the protocol level and dies on the
	// spot: no heartbeat, no complete, exactly like a SIGKILLed process.
	var grant cluster.LeaseGrant
	deadline := time.Now().Add(5 * time.Second)
	for len(grant.Cells) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim never got a lease")
		}
		lr, err := http.Post(ts.URL+"/v1/cluster/lease", "application/json",
			strings.NewReader(`{"worker":"victim","max":2}`))
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

	startWorker(t, ts.URL, "survivor")

	records, errLines, trailer := readStream(t, resp.Body)
	if len(errLines) != 0 {
		t.Fatalf("error lines after recovery: %v", errLines)
	}
	if len(records) != 4 {
		t.Fatalf("records = %v, want 4", records)
	}
	if trailer == nil || trailer.Cells != 4 || trailer.Errors != 0 {
		t.Fatalf("trailer = %+v", trailer)
	}

	m := metricsText(t, ts.URL)
	for _, want := range []string{
		"cachecraft_cluster_leases_expired_total 1",
		"cachecraft_cluster_cells_retried_total 2",
		"cachecraft_sweep_cell_errors_total 0",
		"cachecraft_cluster_cells_failed_total 0",
	} {
		if !strings.Contains(m, want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestClusterStreamErrorCountsOncePerCell drives both sweep endpoints
// through the shared NDJSON writer with a grid whose every simulation
// fails. Each endpoint streams exactly one error line per cell and a
// trailer counting them, and the shared cachecraft_sweep_cell_errors_total
// counts cells — on the cluster endpoint not the retry budget's attempts.
func TestClusterStreamErrorCountsOncePerCell(t *testing.T) {
	for _, tc := range []struct {
		name    string
		path    string
		causes  []string // substrings every error line carries
		metrics []string
	}{
		{"local", "/v1/sweep", []string{"converge"}, nil},
		{"cluster", "/v1/cluster/sweep", []string{"after 2 attempts", "converge"}, []string{
			"cachecraft_cluster_cells_failed_total 2",
			"cachecraft_cluster_cells_retried_total 2",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := quickBase()
			base.MaxCycles = 1 // every simulation fails to converge
			ts, _ := newClusterServer(t, base, cluster.Options{
				MaxAttempts: 2,
				BackoffBase: time.Millisecond,
				BackoffCap:  5 * time.Millisecond,
			}, nil)
			startWorker(t, ts.URL, "w1")

			resp, err := http.Post(ts.URL+tc.path, "application/json",
				strings.NewReader(`{"workloads":["stream","scan"],"schemes":["none"]}`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			records, errLines, trailer := readStream(t, resp.Body)
			if len(records) != 0 {
				t.Fatalf("records from a failing grid: %v", records)
			}
			if len(errLines) != 2 {
				t.Fatalf("error lines = %v, want one per cell", errLines)
			}
			for key, msg := range errLines {
				for _, cause := range tc.causes {
					if !strings.Contains(msg, cause) {
						t.Errorf("cell %s: error %q does not carry %q", key, msg, cause)
					}
				}
			}
			if trailer == nil || trailer.Cells != 2 || trailer.Errors != 2 {
				t.Fatalf("trailer = %+v", trailer)
			}
			m := metricsText(t, ts.URL)
			for _, want := range append(tc.metrics, "cachecraft_sweep_cell_errors_total 2") {
				if !strings.Contains(m, want+"\n") {
					t.Errorf("metrics missing %q:\n%s", want, m)
				}
			}
		})
	}
}

// TestRemoteRunnerByteIdenticalToLocal is the tentpole's determinism
// contract: the same experiment rendered through a remote-backed runner
// (serve + coordinator + two in-process workers) produces byte-identical
// output to a purely local run, with every cell materialized remotely.
func TestRemoteRunnerByteIdenticalToLocal(t *testing.T) {
	base := quickBase()
	exp, err := bench.ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}

	var local bytes.Buffer
	lr := bench.NewRunner(base)
	lr.SetWorkers(4)
	if err := exp.Run(lr, base, &local); err != nil {
		t.Fatal(err)
	}

	ts, _ := newClusterServer(t, base, cluster.Options{}, nil)
	startWorker(t, ts.URL, "w1")
	startWorker(t, ts.URL, "w2")
	client := cluster.NewClient(ts.URL)
	if err := client.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}

	var remote bytes.Buffer
	rr := bench.NewRunner(base)
	rr.SetWorkers(4)
	rr.SetRemote(client)
	if err := exp.Run(rr, base, &remote); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Fatalf("remote output differs from local:\n--- local ---\n%s\n--- remote ---\n%s",
			local.String(), remote.String())
	}
	st := rr.Stats()
	if st.Runs != 0 {
		t.Fatalf("remote runner simulated %d cells locally", st.Runs)
	}
	if st.RemoteHits == 0 {
		t.Fatal("no cells materialized remotely")
	}
}

func TestClientPingRejectsForeignServer(t *testing.T) {
	wrong := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok cachecraft@r0-other\n")
	}))
	t.Cleanup(wrong.Close)
	if err := cluster.NewClient(wrong.URL).Ping(context.Background()); err == nil {
		t.Fatal("Ping accepted a revision-mismatched coordinator")
	}
	down := httptest.NewServer(nil)
	down.Close()
	if err := cluster.NewClient(down.URL).Ping(context.Background()); err == nil {
		t.Fatal("Ping accepted an unreachable coordinator")
	}
}

func TestLeaseEndpointContract(t *testing.T) {
	ts, _ := newClusterServer(t, quickBase(), cluster.Options{}, nil)

	// Empty queue: 204 once the hold is spent, with no Retry-After hint
	// (the worker re-polls at once).
	resp, err := http.Post(ts.URL+"/v1/cluster/lease", "application/json",
		strings.NewReader(`{"worker":"w1","max":4}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("idle lease poll: status %d, want 204", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("204 carries Retry-After %q; an idle worker should re-poll at once", ra)
	}

	// Version fencing: a mismatched worker is refused with 409.
	resp, err = http.Post(ts.URL+"/v1/cluster/lease", "application/json",
		strings.NewReader(`{"worker":"w1","max":4,"sim":"cachecraft@r0-other"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched worker: status %d, want 409", resp.StatusCode)
	}

	// Anonymous workers are rejected.
	resp, err = http.Post(ts.URL+"/v1/cluster/lease", "application/json",
		strings.NewReader(`{"max":4}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("anonymous worker: status %d, want 400", resp.StatusCode)
	}

	// Heartbeating an unknown lease reports 410 Gone.
	resp, err = http.Post(ts.URL+"/v1/cluster/heartbeat", "application/json",
		strings.NewReader(`{"lease_id":"no-such-lease"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("unknown heartbeat: status %d, want 410", resp.StatusCode)
	}
}
