// Package serve exposes the simulation harness as a long-running HTTP
// service: a content-addressed result cache (internal/store) fronting the
// memoizing, singleflighted bench.Runner. Repeat traffic for a simulation
// that has already run — in this process or any earlier one sharing the
// store directory — is answered without simulating, and conditional
// requests (If-None-Match against the record's checksum ETag) transfer no
// body at all.
//
// Endpoints:
//
//	POST /v1/simulate          one (workload, scheme) cell → record JSON
//	POST /v1/sweep             {workloads, schemes} grid → NDJSON records
//	                           streamed as cells finish, then a trailer
//	GET  /v1/results/{fp}      stored record by fingerprint (ETag/304)
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus text exposition (obs.Registry)
//
// /v1/sweep speaks the same protocol as a coordinator's /v1/cluster/sweep
// (cluster.SweepRequest in, cluster.StreamSweep out), except that it
// rejects a config override with 400: only a coordinator runs
// configurations other than the base.
//
// Every request gets an X-Request-Id (generated, or echoed from the
// client's header), a per-endpoint latency observation, and — with a
// Logger configured — one structured access-log line. All counters live in
// an obs.Registry; see docs/OBSERVABILITY.md for the metric catalog.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"time"

	"cachecraft/internal/bench"
	"cachecraft/internal/chaos"
	"cachecraft/internal/cluster"
	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
	"cachecraft/internal/obs"
	"cachecraft/internal/schemes"
	"cachecraft/internal/store"
	"cachecraft/internal/trace"
	"cachecraft/internal/version"
)

// Options configures a Server.
type Options struct {
	// Base is the GPU configuration every request simulates against.
	Base config.GPU
	// Runner executes and memoizes simulations. If nil, a fresh runner is
	// built from Base; if Store is set it is wired beneath the runner.
	Runner *bench.Runner
	// Store is the durable result cache (optional). When present it also
	// backs GET /v1/results and lets warm requests skip the limiter.
	Store *store.Store
	// MaxInFlight bounds simulation-bearing requests executing at once
	// (default runtime.NumCPU()); MaxQueue bounds how many more may wait
	// (0 = default 2×MaxInFlight, negative = no queue). Beyond both,
	// requests get 429.
	MaxInFlight int
	MaxQueue    int
	// Registry receives the server's metrics (a fresh one is created when
	// nil). Sharing a registry lets the embedding process add its own
	// instruments to the same /metrics exposition.
	Registry *obs.Registry
	// Logger emits one structured access-log line per request (nil =
	// access logging off).
	Logger *slog.Logger
	// Tracer wraps each request in a span (nil = tracing off). The span's
	// context propagates into the runner, so traced requests show their
	// cell phases as children.
	Tracer *obs.Tracer
	// Coordinator, when set, mounts the cluster control plane
	// (/v1/cluster/sweep, /lease, /complete, /heartbeat) alongside the
	// simulation endpoints, turning this server into a sweep
	// coordinator. Pass the same Registry to both so cluster metrics
	// share this server's /metrics exposition. Cluster routes bypass
	// the in-flight limiter: they queue and collect work rather than
	// simulate, and a saturated simulation tier must never stop workers
	// from returning finished results.
	Coordinator *cluster.Coordinator
	// Chaos, when set, injects faults at the serve.request site before a
	// request reaches the mux: an error fault becomes a 503, a crash
	// fault aborts the connection mid-response (http.ErrAbortHandler),
	// and latency faults simply delay — the shapes a flaky front-end
	// actually produces. Rules can target one endpoint via Match (the
	// injection key is the request path). Nil means zero overhead.
	Chaos *chaos.Injector
}

// Server is the HTTP layer. Create with New, mount via Handler.
type Server struct {
	base   config.GPU
	runner *bench.Runner
	st     *store.Store
	lim    *limiter
	mux    *http.ServeMux
	m      *metrics
	log    *slog.Logger
	tracer *obs.Tracer
	inj    *chaos.Injector
	// fps holds the store fingerprint of every expressible (workload,
	// scheme) pair on base; a pair not in it is not expressible.
	fps map[cell]string
}

// cell is a (workload, scheme) pair.
type cell struct{ workload, scheme string }

// fingerprints computes the store fingerprint on base of every pair
// cluster.Expressible accepts (every registered workload with every
// scheme in schemes.All), so a request costs one lookup instead of a
// config encoding and a hash.
func fingerprints(base config.GPU) map[cell]string {
	fp := store.Fingerprinter(base)
	fps := make(map[cell]string)
	for _, wl := range trace.Names() {
		for _, sc := range schemes.All() {
			fps[cell{wl, sc}] = fp(wl, sc)
		}
	}
	return fps
}

// New builds a server. The runner's worker pool (bench.Runner.SetWorkers)
// bounds concurrent simulations; Options.MaxInFlight bounds concurrent
// requests, which is the backpressure surface clients see.
func New(opt Options) *Server {
	if opt.MaxInFlight <= 0 {
		opt.MaxInFlight = runtime.NumCPU()
	}
	switch {
	case opt.MaxQueue < 0:
		opt.MaxQueue = 0
	case opt.MaxQueue == 0:
		opt.MaxQueue = 2 * opt.MaxInFlight
	}
	r := opt.Runner
	if r == nil {
		r = bench.NewRunner(opt.Base)
	}
	if opt.Store != nil {
		r.SetStore(opt.Store)
	}
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		base:   opt.Base,
		runner: r,
		st:     opt.Store,
		lim:    newLimiter(opt.MaxInFlight, opt.MaxQueue),
		mux:    http.NewServeMux(),
		log:    opt.Logger,
		tracer: opt.Tracer,
		inj:    opt.Chaos,
		fps:    fingerprints(opt.Base),
	}
	s.m = newMetrics(reg, r, s.lim)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/results/{fingerprint}", s.handleResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opt.Coordinator != nil {
		opt.Coordinator.Register(s.mux)
	}
	return s
}

// Registry exposes the server's metrics registry, e.g. for a drain-time
// snapshot that is guaranteed to agree with what /metrics last served.
func (s *Server) Registry() *obs.Registry { return s.m.reg }

// Handler returns the service's HTTP handler: the observability middleware
// (request ID, per-endpoint metrics, optional access log and span) wrapped
// around the route mux.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = obs.NewID()
		}
		w.Header().Set("X-Request-Id", id)
		ep := endpointOf(r)
		ctx, span := s.tracer.Start(r.Context(), "http.request",
			obs.String("endpoint", ep),
			obs.String("method", r.Method),
			obs.String("request_id", id))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if d := s.inj.Fault(chaos.SiteServeRequest, r.URL.Path); d.Crash {
			// Abort the connection mid-request — the client sees EOF,
			// exactly as if the server process died under it.
			panic(http.ErrAbortHandler)
		} else if d.Err != nil {
			d.Sleep()
			http.Error(sw, "injected fault: "+d.Err.Error(), http.StatusServiceUnavailable)
		} else {
			d.Sleep()
			s.mux.ServeHTTP(sw, r.WithContext(ctx))
		}
		dur := time.Since(start)
		span.SetAttr(obs.Int("status", sw.code))
		span.End()
		s.m.observe(ep, sw.code, dur.Seconds())
		if s.log != nil {
			s.log.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("endpoint", ep),
				slog.Int("status", sw.code),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("dur", dur))
		}
	})
}

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func etagFor(sum string) string { return `"` + sum + `"` }

// etagMatches implements If-None-Match against a strong ETag (weak
// comparison: a W/ prefix on the client's tag is ignored).
func etagMatches(r *http.Request, etag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, f := range strings.Split(inm, ",") {
		f = strings.TrimPrefix(strings.TrimSpace(f), "W/")
		if f == "*" || f == etag {
			return true
		}
	}
	return false
}

// writeRecord sends a record body with its ETag, honouring If-None-Match.
func (s *Server) writeRecord(w http.ResponseWriter, r *http.Request, body []byte, sum string) {
	etag := etagFor(sum)
	w.Header().Set("ETag", etag)
	if etagMatches(r, etag) {
		s.m.notMod.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	w.Write([]byte("\n"))
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !cluster.DecodeBody(w, r, &req) {
		return
	}
	fp, ok := s.fps[cell{req.Workload, req.Scheme}]
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown workload or scheme %q/%q", req.Workload, req.Scheme)
		return
	}

	// Warm path: stored bytes answer the request (possibly with a 304)
	// without touching the limiter or the runner.
	if s.st != nil {
		if body, sum, ok := s.st.GetRaw(fp); ok {
			s.m.resultHits.Inc()
			s.writeRecord(w, r, body, sum)
			return
		}
	}

	if err := s.lim.acquire(r.Context()); err != nil {
		s.reject(w, err)
		return
	}
	res, err := s.runner.ResultCtx(r.Context(), bench.Spec{CfgID: "base", Workload: req.Workload, Variant: req.Scheme})
	s.lim.release()
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nothing useful to write
		}
		httpError(w, http.StatusInternalServerError, "simulate: %v", err)
		return
	}
	// Prefer the persisted bytes (identical content, and proves the store
	// round-trip); fall back to encoding in-process.
	if s.st != nil {
		if body, sum, ok := s.st.GetRaw(fp); ok {
			s.writeRecord(w, r, body, sum)
			return
		}
	}
	body, sum, err := encodeRecord(fp, req.Workload, req.Scheme, res)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	s.writeRecord(w, r, body, sum)
}

func (s *Server) reject(w http.ResponseWriter, err error) {
	if errors.Is(err, errBusy) {
		s.m.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "saturated: %d in flight, %d queued", s.lim.inflight(), s.lim.queued())
	}
	// Context cancellation: the client is gone, write nothing.
}

// encodeRecord renders a result as the canonical store record, the body
// every simulation-bearing endpoint returns.
func encodeRecord(fp, workload, scheme string, res gpu.Result) ([]byte, string, error) {
	return store.EncodeRecord(store.Record{
		Fingerprint: fp,
		Sim:         version.String(),
		Workload:    workload,
		Scheme:      scheme,
		Result:      res,
	})
}

// handleSweep fans a grid out through the runner, which bounds
// simulation concurrency and dedups against concurrent requests, and
// streams each cell's record the moment it completes.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req cluster.SweepRequest
	if !cluster.DecodeBody(w, r, &req) {
		return
	}
	// Each distinct configuration would become a runner config id kept
	// for the process's life, so client input could grow it without
	// bound; overrides run on a coordinator instead.
	if req.Config != nil {
		httpError(w, http.StatusBadRequest, "config overrides need a coordinator (POST /v1/cluster/sweep)")
		return
	}
	cells, err := req.Cells(s.base)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.lim.acquire(r.Context()); err != nil {
		s.reject(w, err)
		return
	}
	defer s.lim.release()
	cluster.StreamSweep(r.Context(), w, cells, func(ctx context.Context, cell cluster.Cell) (cluster.Outcome, error) {
		out := cluster.Outcome{Cell: cell}
		res, err := s.runner.ResultCtx(ctx, bench.Spec{CfgID: "base", Workload: cell.Workload, Variant: cell.Scheme})
		if err != nil && ctx.Err() != nil {
			return out, err // client gone; nothing to stream
		}
		if err == nil {
			out.Body, _, err = encodeRecord(cell.Fingerprint, cell.Workload, cell.Scheme, res)
		}
		if err != nil {
			out.Err = err.Error()
		}
		return out, nil
	}, s.m.sweepErrors)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		httpError(w, http.StatusNotFound, "no store configured")
		return
	}
	fp := r.PathValue("fingerprint")
	body, sum, ok := s.st.GetRaw(fp)
	if !ok {
		httpError(w, http.StatusNotFound, "no result for fingerprint %q", fp)
		return
	}
	s.m.resultHits.Inc()
	s.writeRecord(w, r, body, sum)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok %s\n", version.String())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.reg.WritePrometheus(w)
}
