package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
	"cachecraft/internal/store"
	"cachecraft/internal/version"
)

// Client drives a cluster coordinator from the consumer side. It
// implements bench.Remote, so a bench.Runner with SetRemote(client)
// transparently materializes expressible cells on the cluster: results
// are deterministic and content-addressed, so a remote run's output is
// byte-identical to a local one — only the machines doing the simulating
// change.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the coordinator at base (e.g.
// "http://host:8344").
func NewClient(base string) *Client {
	hc := &http.Client{}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		// A sweep fans out one streaming request per cell; keep the
		// connections reusable instead of thrashing the default two
		// idle conns per host.
		tc := t.Clone()
		tc.MaxIdleConnsPerHost = 64
		hc.Transport = tc
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// Can implements bench.Remote: only registered workload and scheme names
// travel over the wire (custom in-process variants run locally).
func (c *Client) Can(workload, scheme string) bool {
	return Expressible(workload, scheme)
}

// Ping verifies the coordinator is reachable and runs the same simulator
// revision as this process. A revision mismatch is fatal for callers that
// promise byte-identical output, so it is an error, not a warning.
func (c *Client) Ping(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: coordinator unreachable: %w", err)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: coordinator healthz: HTTP %d", resp.StatusCode)
	}
	want := "ok " + version.String()
	if got := strings.TrimSpace(string(body)); got != want {
		// Wrap the sentinel so callers (AwaitCoordinator, worker startup)
		// can tell "retry until it comes up" from "retrying cannot help".
		return fmt.Errorf("cluster: coordinator says %q, this process is %q: %w", got, want, ErrVersionMismatch)
	}
	return nil
}

// AwaitCoordinator pings the coordinator with capped exponential backoff
// until it answers healthily, ctx ends, or the coordinator turns out to
// run a different simulator revision (fatal — waiting cannot fix it).
// Workers call this at startup so fleet bring-up has no ordering
// constraint: workers started before the coordinator simply wait for it,
// exactly as they would ride out a mid-run coordinator restart. logf
// (optional) receives one line per failed attempt.
func AwaitCoordinator(ctx context.Context, c *Client, logf func(format string, args ...any)) error {
	backoff := 250 * time.Millisecond
	for attempt := 1; ; attempt++ {
		pingCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err := c.Ping(pingCtx)
		cancel()
		switch {
		case err == nil:
			return nil
		case errors.Is(err, ErrVersionMismatch):
			return err
		case ctx.Err() != nil:
			return fmt.Errorf("cluster: waiting for coordinator: %w", ctx.Err())
		}
		if logf != nil {
			logf("coordinator not ready (attempt %d): %v; retrying in %s", attempt, err, backoff)
		}
		t := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("cluster: waiting for coordinator: %w", ctx.Err())
		case <-t.C:
		}
		backoff = bump(backoff, 5*time.Second)
	}
}

// Status fetches the coordinator's point-in-time cluster status: queue
// depth, worker fleet health, journal-replay count, and quarantined
// cells. cachecraft-report's -cluster mode renders this.
func (c *Client) Status(ctx context.Context) (StatusResponse, error) {
	var st StatusResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/cluster/status", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return st, fmt.Errorf("cluster: status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return st, fmt.Errorf("cluster: status: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("cluster: status: %w", err)
	}
	return st, nil
}

// Run implements bench.Remote: it submits a single-cell sweep and decodes
// the one streamed record. Any failure — an HTTP error, an error line, a
// truncated stream — is an error the runner recovers from by simulating
// locally.
func (c *Client) Run(ctx context.Context, cfg config.GPU, workload, scheme string) (gpu.Result, error) {
	body, err := json.Marshal(SweepRequest{Workloads: []string{workload}, Schemes: []string{scheme}, Config: &cfg})
	if err != nil {
		return gpu.Result{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/cluster/sweep", bytes.NewReader(body))
	if err != nil {
		return gpu.Result{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return gpu.Result{}, fmt.Errorf("cluster: sweep: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return gpu.Result{}, fmt.Errorf("cluster: sweep: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var probe struct {
			Done        bool   `json:"done"`
			Error       string `json:"error"`
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			return gpu.Result{}, fmt.Errorf("cluster: bad stream line: %w", err)
		}
		switch {
		case probe.Error != "":
			return gpu.Result{}, fmt.Errorf("cluster: remote cell failed: %s", probe.Error)
		case probe.Done:
			return gpu.Result{}, fmt.Errorf("cluster: stream ended without a record")
		case probe.Fingerprint != "":
			var rec store.Record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				return gpu.Result{}, fmt.Errorf("cluster: bad record line: %w", err)
			}
			if rec.Sim != version.String() {
				return gpu.Result{}, fmt.Errorf("cluster: record from simulator revision %q, want %q",
					rec.Sim, version.String())
			}
			return rec.Result, nil
		}
	}
	if err := sc.Err(); err != nil {
		return gpu.Result{}, fmt.Errorf("cluster: stream: %w", err)
	}
	return gpu.Result{}, fmt.Errorf("cluster: stream truncated before any record")
}
