package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cachecraft/internal/cluster"
	"cachecraft/internal/config"
	"cachecraft/internal/schemes"
	"cachecraft/internal/store"
	"cachecraft/internal/trace"
	"cachecraft/internal/version"
)

// sweepLine decodes any line of a sweep stream: a record, an error line
// ({workload,scheme,error}), or the {"done":true,...} trailer.
type sweepLine struct {
	Done     bool   `json:"done"`
	Cells    int    `json:"cells"`
	Errors   int    `json:"errors"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Error    string `json:"error"`
}

func quickBase() config.GPU {
	cfg := config.Quick()
	cfg.AccessesPerSM = 300
	return cfg
}

func newTestServer(t *testing.T, st *store.Store, maxInFlight, maxQueue int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{Base: quickBase(), Store: st, MaxInFlight: maxInFlight, MaxQueue: maxQueue})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSimulateETagAnd304 is the end-to-end warm path: a first POST
// simulates and returns a record with an ETag; a repeat POST with
// If-None-Match answers 304 from the store; GET /v1/results serves the
// same record by fingerprint.
func TestSimulateETagAnd304(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, st, 4, 4)
	body := `{"workload":"stream","scheme":"none"}`

	resp := postJSON(t, ts.URL+"/v1/simulate", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold simulate: status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on simulate response")
	}
	var rec store.Record
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("bad record body: %v\n%s", err, raw)
	}
	wantFP := store.Fingerprint(quickBase(), "stream", "none")
	if rec.Fingerprint != wantFP {
		t.Fatalf("fingerprint = %s, want %s", rec.Fingerprint, wantFP)
	}
	if rec.Result.Cycles == 0 || rec.Result.IPC == 0 {
		t.Fatalf("empty result in record: %+v", rec.Result)
	}

	// Conditional repeat: 304, no body, same ETag; served from the store.
	resp = postJSON(t, ts.URL+"/v1/simulate", body, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional simulate: status %d, want 304", resp.StatusCode)
	}
	if b, _ := io.ReadAll(resp.Body); len(b) != 0 {
		t.Fatalf("304 carried a body: %q", b)
	}
	resp.Body.Close()

	// Unconditional repeat: identical bytes (stored encoding is canonical).
	resp = postJSON(t, ts.URL+"/v1/simulate", body, nil)
	raw2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(raw, raw2) {
		t.Fatalf("warm body differs from cold (status %d)", resp.StatusCode)
	}
	if resp.Header.Get("ETag") != etag {
		t.Fatalf("ETag drifted: %s vs %s", resp.Header.Get("ETag"), etag)
	}

	// Content-addressed GET, plus its 304 path.
	resp, err = http.Get(ts.URL + "/v1/results/" + wantFP)
	if err != nil {
		t.Fatal(err)
	}
	raw3, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(raw, raw3) {
		t.Fatalf("GET /v1/results differs (status %d)", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/results/"+wantFP, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: status %d, want 304", resp.StatusCode)
	}

	// The whole warm sequence must have run exactly one simulation.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "cachecraft_sim_runs_total 1\n") {
		t.Fatalf("metrics report more than one simulation:\n%s", metrics)
	}
}

func TestSimulateValidation(t *testing.T) {
	_, ts := newTestServer(t, nil, 2, 2)
	for _, body := range []string{
		`{"workload":"nope","scheme":"none"}`,
		`{"workload":"stream","scheme":"nope"}`,
		`not json`,
	} {
		resp := postJSON(t, ts.URL+"/v1/simulate", body, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", `{"workloads":["nope"]}`, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sweep with unknown workload: status %d, want 400", resp.StatusCode)
	}
}

// TestFingerprintTableMatchesStore: the table New builds holds exactly the
// expressible (workload, scheme) pairs, each under the fingerprint
// store.Fingerprint gives it on the server's base configuration.
func TestFingerprintTableMatchesStore(t *testing.T) {
	srv, _ := newTestServer(t, nil, 1, 1)
	n := 0
	for _, wl := range trace.Names() {
		for _, sc := range schemes.Names() {
			fp, ok := srv.fps[cell{wl, sc}]
			if ok != cluster.Expressible(wl, sc) {
				t.Fatalf("%s/%s: in table %v, expressible %v", wl, sc, ok, cluster.Expressible(wl, sc))
			}
			if !ok {
				continue
			}
			n++
			if want := store.Fingerprint(quickBase(), wl, sc); fp != want {
				t.Fatalf("%s/%s: table fingerprint %s, store.Fingerprint %s", wl, sc, fp, want)
			}
		}
	}
	if n == 0 || n != len(srv.fps) {
		t.Fatalf("table has %d entries, %d expressible pairs", len(srv.fps), n)
	}
}

func TestResultsUnknownFingerprint(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, st, 2, 2)
	resp, err := http.Get(ts.URL + "/v1/results/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestResultsPathTraversal: an escaped "../" in a requested fingerprint
// does not reach a record file outside the store directory, even one
// that is valid for that fingerprint.
func TestResultsPathTraversal(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "a", "store"))
	if err != nil {
		t.Fatal(err)
	}
	// With the store's two-byte sharding, "../outside" would resolve to
	// dir/outside.json.
	body, sum, err := store.EncodeRecord(store.Record{Fingerprint: "../outside", Sim: version.String()})
	if err != nil {
		t.Fatal(err)
	}
	data := `{"sum":"` + sum + `","body":` + string(body) + "}\n"
	if err := os.WriteFile(filepath.Join(dir, "outside.json"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, st, 2, 2)
	for _, fp := range []string{"..%2Foutside", "%2E%2E%2Foutside"} {
		resp, err := http.Get(ts.URL + "/v1/results/" + fp)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/results/%s: status %d, want 404", fp, resp.StatusCode)
		}
	}
}

// TestBackpressure429: with one in-flight slot held and no queue,
// simulation-bearing requests are rejected immediately with 429.
func TestBackpressure429(t *testing.T) {
	srv, ts := newTestServer(t, nil, 1, -1) // one slot, no queue
	if err := srv.lim.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.lim.release()

	resp := postJSON(t, ts.URL+"/v1/simulate", `{"workload":"stream","scheme":"none"}`, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	// Cluster workers parse this header as integer seconds to pace their
	// retry backoff, so "present" is not enough: it must be a positive
	// integer on every simulation-bearing endpoint.
	for _, r := range []*http.Response{resp,
		postJSON(t, ts.URL+"/v1/sweep", `{"workloads":["stream"],"schemes":["none"]}`, nil)} {
		if r != resp {
			r.Body.Close()
			if r.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("sweep under saturation: status %d, want 429", r.StatusCode)
			}
		}
		secs, err := strconv.Atoi(r.Header.Get("Retry-After"))
		if err != nil || secs < 1 {
			t.Fatalf("429 Retry-After %q: want positive integer seconds (err %v)",
				r.Header.Get("Retry-After"), err)
		}
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("429 body not an error document: %v %v", e, err)
	}

	// Health and metrics must stay reachable while saturated.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", hr.StatusCode)
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(metrics), "cachecraft_http_rejected_total 2\n") {
		t.Fatalf("rejection not counted:\n%s", metrics)
	}
	if !strings.Contains(string(metrics), "cachecraft_inflight_sims 1\n") {
		t.Fatalf("held slot not visible:\n%s", metrics)
	}
}

// TestSweepStreamsNDJSON: a sweep streams one NDJSON record per cell,
// every cell of the grid appears exactly once, and the stream ends with a
// completion trailer carrying the cell and error counts.
func TestSweepStreamsNDJSON(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, st, 4, 4)
	resp := postJSON(t, ts.URL+"/v1/sweep", `{"workloads":["stream","scan"],"schemes":["none","ecc-cache"]}`, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	seen := map[string]bool{}
	var trailer *sweepLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if trailer != nil {
			t.Fatalf("line after trailer: %s", sc.Text())
		}
		var tr sweepLine
		if err := json.Unmarshal(sc.Bytes(), &tr); err == nil && tr.Done {
			trailer = &tr
			continue
		}
		var rec store.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
		}
		key := rec.Workload + "/" + rec.Scheme
		if seen[key] {
			t.Fatalf("duplicate cell %s", key)
		}
		seen[key] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("cells = %v, want 4", seen)
	}
	if trailer == nil {
		t.Fatal("stream ended without a completion trailer")
	}
	if trailer.Cells != 4 || trailer.Errors != 0 {
		t.Fatalf("trailer = %+v, want 4 cells, 0 errors", *trailer)
	}
}

// TestSweepErrorLinesAndTrailer: cells that fail mid-sweep surface as
// NDJSON error lines (the stream keeps going), the completion trailer
// reports the failure count, and the failures land on the
// cachecraft_sweep_cell_errors_total metric.
func TestSweepErrorLinesAndTrailer(t *testing.T) {
	base := quickBase()
	base.MaxCycles = 1 // every simulation fails to converge
	srv := New(Options{Base: base, MaxInFlight: 4, MaxQueue: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/v1/sweep", `{"workloads":["stream","scan"],"schemes":["none"]}`, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	errLines := 0
	var trailer *sweepLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if trailer != nil {
			t.Fatalf("line after trailer: %s", sc.Text())
		}
		var tr sweepLine
		if err := json.Unmarshal(sc.Bytes(), &tr); err == nil && tr.Done {
			trailer = &tr
			continue
		}
		var se sweepLine
		if err := json.Unmarshal(sc.Bytes(), &se); err != nil || se.Error == "" {
			t.Fatalf("expected error line, got: %s", sc.Text())
		}
		if !strings.Contains(se.Error, "converge") {
			t.Fatalf("error line does not carry the cause: %q", se.Error)
		}
		errLines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if errLines != 2 {
		t.Fatalf("error lines = %d, want 2", errLines)
	}
	if trailer == nil {
		t.Fatal("stream ended without a completion trailer")
	}
	if trailer.Cells != 2 || trailer.Errors != 2 {
		t.Fatalf("trailer = %+v, want 2 cells, 2 errors", *trailer)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(metrics), "cachecraft_sweep_cell_errors_total 2\n") {
		t.Fatalf("sweep cell errors not counted:\n%s", metrics)
	}
}

// TestSweepRejectsConfigOverride: the local sweep endpoint answers a
// config override with 400 instead of silently simulating the base
// configuration; overrides belong to /v1/cluster/sweep.
func TestSweepRejectsConfigOverride(t *testing.T) {
	srv, ts := newTestServer(t, nil, 2, 2)
	cfg := quickBase()
	cfg.Seed += 99
	body, err := json.Marshal(map[string]any{
		"workloads": []string{"stream"}, "schemes": []string{"none"}, "config": cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", string(body), nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep with a config override: status %d, want 400", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e["error"], "coordinator") {
		t.Fatalf("400 body does not point at the coordinator: %v %v", e, err)
	}
	if st := srv.runner.Stats(); st.Started != 0 {
		t.Fatalf("rejected sweep requested %d cells", st.Started)
	}
}

// TestSweepClientCancellationMidStream: a client that disconnects after
// the first record must not wedge the server — the handler unwinds, the
// limiter slot frees, and the next request succeeds.
func TestSweepClientCancellationMidStream(t *testing.T) {
	srv, ts := newTestServer(t, nil, 1, -1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep",
		strings.NewReader(`{"workloads":["stream","scan","bfs","histogram"],"schemes":["none"]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("first streamed record: %v", err)
	}
	cancel() // hang up mid-stream
	resp.Body.Close()

	// The single in-flight slot must come back; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for srv.lim.inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("limiter slot never freed after client cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp2 := postJSON(t, ts.URL+"/v1/simulate", `{"workload":"stream","scheme":"none"}`, nil)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("request after cancellation: status %d", resp2.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil, 2, 2)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ok ") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

// TestOversizeBodiesRejected: a body past cluster.MaxBodyBytes is refused
// with 413 before it can start a simulation, even when its prefix is a
// valid request.
func TestOversizeBodiesRejected(t *testing.T) {
	srv, ts := newTestServer(t, nil, 2, 2)
	pad := `,"pad":"` + strings.Repeat("x", cluster.MaxBodyBytes) + `"}`
	for _, c := range []struct{ path, body string }{
		{"/v1/simulate", `{"workload":"stream","scheme":"none"` + pad},
		{"/v1/sweep", `{"workloads":["stream"],"schemes":["none"]` + pad},
	} {
		resp := postJSON(t, ts.URL+c.path, c.body, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", c.path, resp.StatusCode)
		}
	}
	if s := srv.runner.Stats(); s.Started != 0 {
		t.Fatalf("oversize requests started %d cells", s.Started)
	}
}
