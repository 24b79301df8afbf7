package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"cachecraft/internal/schemes"
	"cachecraft/internal/trace"
	"cachecraft/internal/version"
)

// Register mounts the cluster's HTTP surface on mux. The routes are
// control-plane traffic (cheap queue operations, or streams that spend
// their life waiting), so they deliberately bypass the serving layer's
// simulation limiter — a saturated simulation tier must not stop workers
// from returning finished results.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/cluster/sweep", c.handleSweep)
	mux.HandleFunc("POST /v1/cluster/lease", c.handleLease)
	mux.HandleFunc("POST /v1/cluster/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /v1/cluster/status", c.handleStatus)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// streamError is the NDJSON line for a terminally failed cell — the same
// wire shape internal/serve emits on /v1/sweep.
type streamError struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Error    string `json:"error"`
}

// streamTrailer is the completion trailer, identical to /v1/sweep's: its
// presence is the completeness signal, its absence marks a truncated
// stream. Quarantined (a subset of Errors) counts cells the poison-cell
// rule condemned; it is omitted when zero so local and cluster trailers
// stay byte-compatible on healthy sweeps.
type streamTrailer struct {
	Done        bool `json:"done"`
	Cells       int  `json:"cells"`
	Errors      int  `json:"errors"`
	Quarantined int  `json:"quarantined,omitempty"`
}

// handleSweep expands a grid into cells, submits them to the cluster, and
// streams each cell's canonical record (or terminal error line) as it
// completes, ending with a {"done":true} trailer. The NDJSON format is
// byte-compatible with POST /v1/sweep — clients need not care whether a
// grid ran locally or across a fleet.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Workloads) == 0 {
		req.Workloads = trace.Names()
	}
	if len(req.Schemes) == 0 {
		req.Schemes = schemes.All()
	}
	cfg := c.opt.Base
	if req.Config != nil {
		// Reject a bad geometry here: once leased, it would panic the
		// worker that builds the machine.
		if err := req.Config.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, "bad config: %v", err)
			return
		}
		cfg = *req.Config
	}
	var cells []Cell
	for _, wl := range req.Workloads {
		for _, sc := range req.Schemes {
			if !Expressible(wl, sc) {
				httpError(w, http.StatusBadRequest, "unknown workload or scheme %q/%q", wl, sc)
				return
			}
			cells = append(cells, NewCell(cfg, wl, sc))
		}
	}
	for _, cell := range cells {
		if err := c.Submit(cell); err != nil {
			httpError(w, http.StatusBadRequest, "submit: %v", err)
			return
		}
	}

	ctx := r.Context()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// Commit the 200 and flush before any cell completes: clients block on
	// response headers, and a grid whose first result is minutes away must
	// not look like a dead coordinator.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}

	// One waiter per cell; each cell yields exactly one line because the
	// coordinator publishes exactly one outcome per fingerprint.
	outcomes := make(chan Outcome)
	var wg sync.WaitGroup
	for _, cell := range cells {
		wg.Add(1)
		go func(fp string) {
			defer wg.Done()
			out, err := c.Wait(ctx, fp)
			if err != nil {
				return // client gone or coordinator closed; nothing to stream
			}
			select {
			case outcomes <- out:
			case <-ctx.Done():
			}
		}(cell.Fingerprint)
	}
	go func() {
		wg.Wait()
		close(outcomes)
	}()

	streamed, failed, quarantined := 0, 0, 0
	for out := range outcomes {
		if ctx.Err() != nil {
			break
		}
		streamed++
		var line []byte
		if out.Err != "" {
			failed++
			if out.Quarantined {
				quarantined++
			}
			c.m.streamErrors.Inc()
			line, _ = json.Marshal(streamError{Workload: out.Cell.Workload, Scheme: out.Cell.Scheme, Error: out.Err})
		} else {
			line = out.Body
		}
		w.Write(line)
		w.Write([]byte("\n"))
		if flusher != nil {
			flusher.Flush()
		}
	}
	if ctx.Err() == nil && streamed == len(cells) {
		line, _ := json.Marshal(streamTrailer{Done: true, Cells: streamed, Errors: failed, Quarantined: quarantined})
		w.Write(line)
		w.Write([]byte("\n"))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleLease answers a worker's poll: 200 with a batch of cells, 204
// (plus a Retry-After hint) when there is nothing to do, or 409 when the
// worker runs a different simulator revision — a mixed-revision fleet
// would compute records under fingerprints no current client asks for.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "lease request names no worker")
		return
	}
	if req.Sim != "" && req.Sim != version.String() {
		httpError(w, http.StatusConflict, "simulator revision mismatch: coordinator %s, worker %s",
			version.String(), req.Sim)
		return
	}
	// Polls double as liveness and telemetry reports, so an idle worker
	// (every poll answered 204) still shows up live on /v1/cluster/status
	// with fresh cachecraft_worker_* families on /metrics.
	c.ReportWorker(req.Worker, req.Metrics)
	grant := c.Lease(req.Worker, req.Max)
	if grant == nil {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(grant)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	resp := c.Complete(req)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// Report before resolving the lease: a worker whose lease just
	// expired is still alive, and its metrics are still current.
	c.ReportWorker(req.Worker, req.Metrics)
	if !c.Heartbeat(req.LeaseID) {
		httpError(w, http.StatusGone, "lease %q expired or unknown", req.LeaseID)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStatus answers GET /v1/cluster/status with a point-in-time
// picture of queue depth and fleet health — the JSON twin of the
// cachecraft_cluster_* metric families, shaped for humans and scripts
// rather than scrapers.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(c.Status())
}

// retryAfterSeconds parses a Retry-After header as integer seconds
// (the only form this system emits); 0 means absent or unparseable.
func retryAfterSeconds(h http.Header) int {
	n, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}
