package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"cachecraft/internal/bench"
	"cachecraft/internal/cluster"
	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
	"cachecraft/internal/obs"
	"cachecraft/internal/serve"
	"cachecraft/internal/store"
	"cachecraft/internal/version"
)

// serviceStack is one in-process deployment: store, journal, coordinator
// and server on a loopback listener, and one worker with its own runner.
type serviceStack struct {
	st        *store.Store
	journal   *cluster.Journal
	reg       *obs.Registry
	coord     *cluster.Coordinator
	srvRunner *bench.Runner
	hs        *http.Server
	served    chan error
	url       string
	worker    *cluster.Worker
	wRunner   *bench.Runner
	rpc       *timingTransport

	mu     sync.Mutex
	hitCPU []float64 // thread CPU ms of each /v1/simulate handler call
}

// startStack brings a deployment up in dir and returns once /healthz
// answers.
func startStack(base config.GPU, dir string) (*serviceStack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	j, err := cluster.OpenJournal(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		return nil, err
	}
	s := &serviceStack{st: st, journal: j, reg: obs.NewRegistry(), served: make(chan error, 1)}
	s.coord = cluster.New(cluster.Options{Base: base, Store: st, Registry: s.reg, Journal: j})
	s.srvRunner = bench.NewRunner(base)
	s.srvRunner.SetWorkers(1)
	srv := serve.New(serve.Options{Base: base, Runner: s.srvRunner, Store: st, Registry: s.reg, Coordinator: s.coord})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.coord.Close()
		j.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.timeSimulate(srv.Handler())}
	go func() { s.served <- s.hs.Serve(ln) }()

	s.wRunner = bench.NewRunner(base)
	s.wRunner.SetWorkers(1)
	s.rpc = &timingTransport{base: &http.Transport{MaxConnsPerHost: 1}}
	s.worker, err = cluster.NewWorker(cluster.WorkerOptions{
		Coordinator: s.url,
		Name:        "perfbench-worker",
		Runner:      s.wRunner,
		Batch:       1,
		HTTPClient:  &http.Client{Transport: s.rpc},
	})
	if err != nil {
		s.stop()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cluster.AwaitCoordinator(ctx, cluster.NewClient(s.url), nil); err != nil {
		s.stop()
		return nil, fmt.Errorf("service not ready: %w", err)
	}
	return s, nil
}

// timeSimulate records the server-side thread CPU time of every
// /v1/simulate request: the handler runs on the connection's goroutine,
// locked to its thread for the call.
func (s *serviceStack) timeSimulate(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/simulate" {
			h.ServeHTTP(w, r)
			return
		}
		runtime.LockOSThread()
		c0 := threadCPU()
		h.ServeHTTP(w, r)
		d := threadCPU() - c0
		runtime.UnlockOSThread()
		s.mu.Lock()
		s.hitCPU = append(s.hitCPU, ms(d))
		s.mu.Unlock()
	})
}

// stop shuts the deployment down and waits for the server to exit.
func (s *serviceStack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.coord.Close()
	if jerr := s.journal.Close(); err == nil {
		err = jerr
	}
	s.rpc.base.CloseIdleConnections()
	return err
}

// timingTransport times the worker's coordinator RPCs by path.
type timingTransport struct {
	base *http.Transport
	mu   sync.Mutex
	ms   map[string][]float64
}

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(r)
	d := ms(time.Since(t0))
	t.mu.Lock()
	if t.ms == nil {
		t.ms = map[string][]float64{}
	}
	t.ms[r.URL.Path] = append(t.ms[r.URL.Path], d)
	t.mu.Unlock()
	return resp, err
}

// serviceRound is one round's measurements. Host times are process CPU
// seconds of the whole deployment (server, coordinator, worker and
// client), scaled by the calibration samples around each phase.
type serviceRound struct {
	setup    float64 // CPU s
	cold     float64 // CPU s
	cells    int
	accesses float64
	cycles   float64
	allocs   uint64
	hits     int
	hitCPU   float64   // CPU s of the hit loop
	hitMs    []float64 // server-side thread CPU ms per hit
	wallMs   []float64 // client-observed wall ms per hit (report only)
	coldWall float64   // s (report only)

	coldScale float64
	hitScale  float64
}

// serviceConns is the closed-loop client count: at most nproc.
func serviceConns() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runService measures the in-process service. Each round starts a fresh
// deployment (its set-up time), runs a cold /v1/cluster/sweep of the quick
// grid through the coordinator and the worker, then a closed loop of
// /v1/simulate hits on the materialised cells; rounds repeat until the
// measuring time is spent. Every streamed and served result is checked
// against a local Machine.Run of the same cell.
func runService(b *benchRun) error {
	base := quickConfig(b)
	cells := quickGrid(b)

	// Untimed warm-up and reference: every cell simulated locally.
	refs := map[cell]gpu.Result{}
	var refList []gpu.Result
	for _, c := range cells {
		m, _, err := build(base, c, nil)
		b.op(err)
		if err != nil {
			return err
		}
		r, err := simulate(m, c)
		b.op(err)
		if err != nil {
			return err
		}
		if b.planted("service") {
			r.res.Cycles++
		}
		refs[c] = r.res
		refList = append(refList, r.res)
	}

	hitFor := 1500 * time.Millisecond
	if b.o.tiny {
		hitFor = 200 * time.Millisecond
	}
	minRounds := 3
	if b.o.tiny {
		minRounds = 1
	}
	var rounds []serviceRound
	measureStart := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		st, rd, err := serviceRoundRun(b, base, cells, refs, filepath.Join(b.tmp, fmt.Sprintf("round-%d", i)), hitFor, false)
		if err != nil {
			return err
		}
		if err := st.stop(); err != nil {
			return err
		}
		rounds = append(rounds, rd)
		if b.o.trace || (i+1 >= minRounds && !b.more(measureStart, time.Since(t0).Seconds())) {
			break
		}
	}

	// Extra set-ups so the set-up median rests on enough samples.
	var setups []float64 // CPU s
	for _, r := range rounds {
		setups = append(setups, r.setup)
	}
	for i := 0; len(setups) < 21 && !b.o.tiny; i++ {
		runtime.GC()
		c0 := cpuTime()
		st, err := startStack(base, filepath.Join(b.tmp, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		if err := st.stop(); err != nil {
			return err
		}
	}

	if b.o.trace {
		return traceService(b, base, cells, refs, refList, rounds[0], hitFor)
	}

	var cps, aps, app, wps, cyc, coldWall []float64
	var hitMs, wallMs []float64
	for _, r := range rounds {
		cps = append(cps, float64(r.cells)/(r.cold*r.coldScale))
		aps = append(aps, r.accesses/(r.cold*r.coldScale))
		app = append(app, float64(r.allocs)/r.accesses)
		wps = append(wps, float64(r.hits)/(r.hitCPU*r.hitScale))
		cyc = append(cyc, r.cycles)
		coldWall = append(coldWall, r.coldWall)
		for _, l := range r.hitMs {
			hitMs = append(hitMs, l*r.hitScale)
		}
		wallMs = append(wallMs, r.wallMs...)
	}
	scale := b.cal.scale(0)
	b.set("cells_per_s", median(cps))
	b.set("accesses_per_s", median(aps))
	b.set("allocs_per_access", median(app))
	b.set("warm_cells_per_s", median(wps))
	b.set("sim_cycles", median(cyc))
	b.set("hit_ms_p50", median(hitMs))
	b.set("hit_ms_p99", p99(hitMs))
	b.set("setup_s", median(setups)*scale)
	b.report["raw"] = map[string]any{
		"rounds": len(rounds), "cells_per_s": cps, "accesses_per_s": aps, "allocs_per_access": app,
		"warm_cells_per_s": wps, "setup_cpu_s": setups, "hit_samples": len(hitMs), "connections": serviceConns(),
		"cold_wall_s": coldWall, "client_wall_ms_p50": median(wallMs), "client_wall_ms_p99": p99(wallMs),
	}
	return nil
}

// serviceRoundRun starts a deployment and runs one cold sweep and one hit
// loop against it. The caller stops the returned stack.
func serviceRoundRun(b *benchRun, base config.GPU, cells []cell, refs map[cell]gpu.Result, dir string, hitFor time.Duration, traced bool) (*serviceStack, serviceRound, error) {
	var rd serviceRound
	parent := b.spans.begin(0, "service-round", map[string]any{"traced": traced})
	defer b.spans.end(parent)

	id := b.spans.begin(parent, "setup", nil)
	runtime.GC() // every set-up starts from a collected heap
	c0 := cpuTime()
	st, err := startStack(base, dir)
	rd.setup = (cpuTime() - c0).Seconds()
	b.spans.end(id)
	b.op(err)
	if err != nil {
		return nil, rd, err
	}
	coldLo := b.cal.mark()
	b.cal.sample(3)

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serviceConns(), MaxIdleConnsPerHost: serviceConns()}}
	defer client.CloseIdleConnections()

	// Cold: one /v1/cluster/sweep of the grid.
	wls, schs := gridAxes(cells)
	body, _ := json.Marshal(cluster.SweepRequest{Workloads: wls, Schemes: schs})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id = b.spans.begin(parent, "POST /v1/cluster/sweep", map[string]any{"cells": len(cells)})
	t0 := time.Now()
	c0 = cpuTime()
	resp, err := client.Post(st.url+"/v1/cluster/sweep", "application/json", bytes.NewReader(body))
	b.op(err)
	if err != nil {
		b.spans.end(id)
		st.stop()
		return nil, rd, err
	}
	// The 200 is sent after every cell is queued, so the worker's first
	// poll finds work: its idle backoff never becomes measured sleep.
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan error, 1)
	go func() { wdone <- st.worker.Run(wctx) }()
	streamed, err := readSweep(b, resp, base, refs)
	rd.cold = (cpuTime() - c0).Seconds()
	rd.coldWall = time.Since(t0).Seconds()
	b.spans.end(id)
	runtime.ReadMemStats(&after)
	wcancel()
	<-wdone
	if err != nil {
		st.stop()
		return nil, rd, err
	}
	rd.allocs = after.Mallocs - before.Mallocs
	for _, c := range cells {
		rd.cells++
		rd.accesses += accessesOf(base)
		rd.cycles += float64(refs[c].Cycles)
	}
	b.check(len(streamed) == len(cells), "cluster sweep streamed %d of %d cells", len(streamed), len(cells))
	hitLo := b.cal.mark()
	b.cal.sample(3)
	rd.coldScale = b.cal.scale(coldLo)

	// Hits: a closed loop of /v1/simulate on the materialised cells.
	id = b.spans.begin(parent, "hit-loop", map[string]any{"connections": serviceConns()})
	c0 = cpuTime()
	rd.wallMs = hitLoop(b, client, st.url, cells, streamed, hitFor, id)
	rd.hitCPU = (cpuTime() - c0).Seconds()
	b.spans.end(id)
	rd.hits = len(rd.wallMs)
	st.mu.Lock()
	rd.hitMs = append([]float64(nil), st.hitCPU...)
	st.mu.Unlock()
	b.cal.sample(3)
	rd.hitScale = b.cal.scale(hitLo)
	return st, rd, nil
}

// gridAxes recovers the workload and scheme lists of a cross product.
func gridAxes(cells []cell) (wls, schs []string) {
	seenW, seenS := map[string]bool{}, map[string]bool{}
	for _, c := range cells {
		if !seenW[c.Workload] {
			seenW[c.Workload] = true
			wls = append(wls, c.Workload)
		}
		if !seenS[c.Scheme] {
			seenS[c.Scheme] = true
			schs = append(schs, c.Scheme)
		}
	}
	return wls, schs
}

// readSweep reads a cluster sweep's NDJSON stream, checks each record
// against the local reference, and returns each cell's record line.
func readSweep(b *benchRun, resp *http.Response, base config.GPU, refs map[cell]gpu.Result) (map[cell][]byte, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("cluster sweep: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	out := map[cell][]byte{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	trailer := false
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		var probe struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("cluster sweep: bad line: %w", err)
		}
		if probe.Done {
			trailer = true
			break
		}
		if probe.Error != "" {
			b.op(fmt.Errorf("cluster sweep cell failed: %s", probe.Error))
			continue
		}
		var rec store.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("cluster sweep: bad record: %w", err)
		}
		c := cell{rec.Workload, rec.Scheme}
		ref, ok := refs[c]
		b.check(ok && rec.Fingerprint == store.Fingerprint(base, c.Workload, c.Scheme) && sameResult(rec.Result, ref),
			"%s: cluster result differs from a local Machine.Run", c)
		out[c] = line
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster sweep stream: %w", err)
	}
	b.check(trailer, "cluster sweep stream ended without its trailer")
	return out, nil
}

// hitLoop runs serviceConns closed-loop clients, each posting
// /v1/simulate for the cells in turn until hitFor has passed, and returns
// the client-observed latencies. Every response must be a 200 carrying
// the same record the sweep streamed.
func hitLoop(b *benchRun, client *http.Client, url string, cells []cell, streamed map[cell][]byte, hitFor time.Duration, parent int) (lat []float64) {
	conns := serviceConns()
	bodies := make([][]byte, len(cells))
	for i, c := range cells {
		bodies[i], _ = json.Marshal(serve.SimulateRequest{Workload: c.Workload, Scheme: c.Scheme})
	}
	type connOut struct {
		lat  []float64
		errs []error
	}
	outs := make([]connOut, conns)
	var wg sync.WaitGroup
	deadline := time.Now().Add(hitFor)
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			o := &outs[k]
			for i := k; time.Now().Before(deadline); i++ {
				c := cells[i%len(cells)]
				id := b.spans.begin(parent, "POST /v1/simulate", nil)
				t0 := time.Now()
				resp, err := client.Post(url+"/v1/simulate", "application/json", bytes.NewReader(bodies[i%len(cells)]))
				var got []byte
				if err == nil {
					got, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("%s: /v1/simulate HTTP %d", c, resp.StatusCode)
					}
				}
				d := time.Since(t0)
				b.spans.end(id)
				o.lat = append(o.lat, ms(d))
				if err == nil {
					want := streamed[c]
					if b.planted("hit-body") {
						want = nil
					}
					if !bytes.Equal(bytes.TrimSpace(got), want) {
						err = fmt.Errorf("%s: /v1/simulate body differs from the streamed record", c)
					}
				}
				o.errs = append(o.errs, err)
			}
		}(k)
	}
	wg.Wait()
	for _, o := range outs {
		lat = append(lat, o.lat...)
		for _, err := range o.errs {
			b.op(err)
		}
	}
	return lat
}

// traceService is the traced run of the service workload: one traced
// round under a CPU profile (compared with the untraced round already
// made), the registry's serve and cluster counters, the worker's RPC
// timings, timed Journal.Append calls, timed store calls, and the cell analysis
// over the grid for the simulator layers.
func traceService(b *benchRun, base config.GPU, cells []cell, refs map[cell]gpu.Result, refList []gpu.Result, untraced serviceRound, hitFor time.Duration) error {
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	st, rd, err := serviceRoundRun(b, base, cells, refs, filepath.Join(b.tmp, "traced"), hitFor, true)
	cpu, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	setCPUFractions(b, cpu)
	setOverhead(b, secs(untraced.cold), secs(rd.cold))

	snap := st.reg.Snapshot()
	var requests float64
	for _, n := range snap.Names() {
		if strings.HasPrefix(n, "cachecraft_http_requests_total") {
			requests += float64(snap.Get(n))
		}
	}
	b.set("serve.requests", requests)
	b.set("serve.rejected", float64(snap.Get("cachecraft_http_rejected_total")))
	b.set("cluster.cells_leased", float64(snap.Get("cachecraft_cluster_cells_leased_total")))
	b.set("cluster.redispatched_cells", float64(snap.Get("cachecraft_cluster_cells_redispatched_total")))
	st.rpc.mu.Lock()
	b.set("cluster.lease_ms_p50", median(st.rpc.ms["/v1/cluster/lease"]))
	b.set("cluster.complete_ms_p50", median(st.rpc.ms["/v1/cluster/complete"]))
	st.rpc.mu.Unlock()
	setBenchMetrics(b, addStats(st.wRunner.Stats(), st.srvRunner.Stats()))
	if err := st.stop(); err != nil {
		return err
	}

	// Journal.Append, timed: one fsynced done entry per cell.
	j, err := cluster.OpenJournal(filepath.Join(b.tmp, "timed-journal.ndjson"))
	if err != nil {
		return err
	}
	var appends []float64
	for i, c := range cells {
		body, sum, err := store.EncodeRecord(store.Record{
			Fingerprint: store.Fingerprint(base, c.Workload, c.Scheme),
			Sim:         version.String(), Workload: c.Workload, Scheme: c.Scheme, Result: refList[i],
		})
		if err != nil {
			j.Close()
			return err
		}
		t0 := time.Now()
		err = j.Append(cluster.JournalEntry{Op: cluster.JournalDone, Fingerprint: store.Fingerprint(base, c.Workload, c.Scheme),
			Workload: c.Workload, Scheme: c.Scheme, Sim: version.String(), Sum: sum, Body: body})
		appends = append(appends, ms(time.Since(t0)))
		b.op(err)
	}
	if err := j.Close(); err != nil {
		return err
	}
	b.set("cluster.journal_append_ms_p50", median(appends))

	// Store calls, timed: save then look up every cell on a fresh store.
	s, err := store.Open(filepath.Join(b.tmp, "timed-store"))
	if err != nil {
		return err
	}
	ts := newTimedStore(s, b.spans)
	for i, c := range cells {
		b.op(ts.Save(base, c.Workload, c.Scheme, refList[i]))
	}
	for i, c := range cells {
		res, ok := ts.Lookup(base, c.Workload, c.Scheme)
		b.check(ok && sameResult(res, refList[i]), "%s: timed store read differs", c)
	}
	ts.setStoreMetrics(b)

	_, err = analyzeCells(b, base, cells, false)
	return err
}
