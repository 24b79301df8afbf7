package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cachecraft/internal/obs"
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

// MaxBodyBytes bounds every JSON request body the coordinator and the
// serving layer read, and every journal line replay reads. It is one
// value because a complete push carries records the journal then holds.
const MaxBodyBytes = 8 << 20

// DecodeBody decodes r's JSON body into v, reading at most MaxBodyBytes.
// On failure it answers 413 (body too large) or 400 and reports false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, "bad request body: %v", err)
	return false
}

// sweepError is the NDJSON line for a cell that terminally failed.
type sweepError struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Error    string `json:"error"`
}

// sweepTrailer is the final NDJSON line of a sweep stream that ran to
// completion. Its presence is the client's completeness signal: a stream
// that ends without a trailer was truncated (client cancellation, server
// death), whereas a trailer with a non-zero error count says the grid
// was fully attempted but some cells failed. Done is always true — the
// field lets clients tell the trailer from cell lines. Quarantined (a
// subset of Errors) counts cells the poison-cell rule condemned; it is
// omitted when zero, so local and cluster trailers match on healthy
// sweeps.
type sweepTrailer struct {
	Done        bool `json:"done"`
	Cells       int  `json:"cells"`
	Errors      int  `json:"errors"`
	Quarantined int  `json:"quarantined,omitempty"`
}

// StreamSweep is the one NDJSON writer behind both sweep endpoints. It
// commits a 200, then calls fetch for every cell on its own goroutine and
// writes each outcome the moment it arrives — the cell's record, or a
// {workload,scheme,error} line counted on errs — and ends with the
// {"done":true,…} trailer once every cell has streamed. A fetch error
// means the cell has nothing to stream (the client left, or the server
// is closing), so such a stream ends without a trailer. Producers never
// block on a departed consumer: every send selects against ctx.
func StreamSweep(ctx context.Context, w http.ResponseWriter, cells []Cell,
	fetch func(context.Context, Cell) (Outcome, error), errs *obs.Counter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	writeLine := func(line []byte) {
		w.Write(line)
		w.Write([]byte("\n"))
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Commit the 200 and flush before any cell completes: clients block
	// on response headers, and a grid whose first result is minutes away
	// must not look like a dead server.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}

	outcomes := make(chan Outcome)
	var wg sync.WaitGroup
	for _, cell := range cells {
		wg.Add(1)
		go func(cell Cell) {
			defer wg.Done()
			out, err := fetch(ctx, cell)
			if err != nil {
				return
			}
			select {
			case outcomes <- out:
			case <-ctx.Done():
			}
		}(cell)
	}
	go func() {
		wg.Wait()
		close(outcomes)
	}()

	tr := sweepTrailer{Done: true}
	for out := range outcomes {
		if ctx.Err() != nil {
			break // client cancelled mid-stream; producers drain via ctx
		}
		tr.Cells++
		line := out.Body
		if out.Err != "" {
			tr.Errors++
			if out.Quarantined {
				tr.Quarantined++
			}
			errs.Inc()
			line, _ = json.Marshal(sweepError{Workload: out.Cell.Workload, Scheme: out.Cell.Scheme, Error: out.Err})
		}
		writeLine(line)
	}
	if ctx.Err() == nil && tr.Cells == len(cells) {
		line, _ := json.Marshal(tr)
		writeLine(line)
	}
}

// handleSweep expands a grid into cells, submits them to the cluster, and
// streams each cell's canonical record (or terminal error line) as it
// completes. Each cell yields exactly one line, because the coordinator
// publishes exactly one outcome per fingerprint. The stream is
// byte-compatible with POST /v1/sweep — clients need not care whether a
// grid ran locally or across a fleet.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	cells, err := req.Cells(c.opt.Base)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	for _, cell := range cells {
		if err := c.Submit(cell); err != nil {
			httpError(w, http.StatusBadRequest, "submit: %v", err)
			return
		}
	}
	StreamSweep(r.Context(), w, cells, func(ctx context.Context, cell Cell) (Outcome, error) {
		return c.Wait(ctx, cell.Fingerprint)
	}, c.m.streamErrors)
}

// leaseHold bounds how long a lease poll on an empty queue is held open.
// An idle worker re-polls straight after each 204, so the coordinator
// hears from it at least this often.
const leaseHold = time.Second

// handleLease answers a worker's poll: 200 with a batch of cells, 409
// when the worker runs a different simulator revision — a mixed-revision
// fleet would compute records under fingerprints no current client asks
// for — or, when nothing is eligible, a held poll. The hold answers 200
// as soon as a cell this worker may take is queued or a backed-off cell's
// notBefore passes, 204 once leaseHold is spent, and 503 at once when the
// coordinator closes; it ends when the worker hangs up.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !DecodeBody(w, r, &req) {
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
	end := time.Now().Add(leaseHold)
	for {
		grant, wake, next := c.grantLease(req.Worker, req.Max)
		// Lazy reaping may have terminally failed or quarantined cells.
		c.flushJournal()
		if grant != nil {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(grant)
			return
		}
		wait := time.Until(end)
		if wait <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if !next.IsZero() {
			wait = min(wait, time.Until(next))
		}
		select {
		case <-wake:
		case <-time.After(wait):
		case <-r.Context().Done():
			return // the worker hung up
		case <-c.closed:
			httpError(w, http.StatusServiceUnavailable, "coordinator closed")
			return
		}
	}
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	resp := c.Complete(req)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !DecodeBody(w, r, &req) {
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
