// Worker-hardening satellites: startup with no coordinator yet, and RPC
// budgets that keep a sick coordinator from wedging a worker.
package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cachecraft/internal/bench"
	"cachecraft/internal/cluster"
	"cachecraft/internal/config"
	"cachecraft/internal/obs"
	"cachecraft/internal/serve"
	"cachecraft/internal/store"
)

// TestAwaitCoordinatorOutlivesLateStart pins the fleet bring-up
// contract: a worker process started before its coordinator waits with
// capped backoff and proceeds the moment the coordinator appears —
// start order is an operational non-constraint.
func TestAwaitCoordinatorOutlivesLateStart(t *testing.T) {
	// Reserve an address, then free it so the first pings fail with
	// connection-refused — exactly what a not-yet-started coordinator
	// looks like.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	waitErr := make(chan error, 1)
	go func() {
		waitErr <- cluster.AwaitCoordinator(ctx, cluster.NewClient("http://"+addr), t.Logf)
	}()

	// Let a few refused attempts happen before the coordinator shows up.
	time.Sleep(300 * time.Millisecond)
	select {
	case err := <-waitErr:
		t.Fatalf("AwaitCoordinator returned %v before any coordinator existed", err)
	default:
	}
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{Base: quickBase(), Store: st, MaxInFlight: 2, MaxQueue: 4,
		Registry: obs.NewRegistry()})
	ts := &httptest.Server{Listener: l2, Config: &http.Server{Handler: srv.Handler()}}
	ts.Start()
	defer ts.Close()

	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("AwaitCoordinator after late start: %v", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("AwaitCoordinator never noticed the coordinator starting")
	}
}

func TestAwaitCoordinatorVersionMismatchIsFatal(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok cachecraft@r0-other-build")
	}))
	defer ts.Close()
	start := time.Now()
	err := cluster.AwaitCoordinator(context.Background(), cluster.NewClient(ts.URL), nil)
	if !errors.Is(err, cluster.ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	// Fatal means no retry loop: the mismatch must return on the first
	// attempt, not after the backoff schedule.
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("mismatch took %s to surface; AwaitCoordinator retried a fatal error", waited)
	}
}

// TestHungHeartbeatsDoNotWedgeTheSweep: the coordinator's heartbeat
// endpoint hangs forever (sick network, half-dead peer). The TTL-derived
// per-call budget aborts each hung renewal, and the sweep still
// completes because result pushes are independent of heartbeat health.
func TestHungHeartbeatsDoNotWedgeTheSweep(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newClusterServer(t, quickBase(), cluster.Options{
		LeaseTTL: 500 * time.Millisecond,
	}, st)
	// Front the real server with a proxy that swallows heartbeats.
	hang := make(chan struct{})
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cluster/heartbeat" {
			<-hang
			return
		}
		r2 := r.Clone(r.Context())
		r2.RequestURI = ""
		u := *r.URL
		u.Scheme = "http"
		u.Host = ts.Listener.Addr().String()
		r2.URL = &u
		resp, err := http.DefaultTransport.RoundTrip(r2)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32*1024)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
			}
			if rerr != nil {
				return
			}
		}
	}))
	// Release any heartbeat handler parked on hang before Close waits for
	// the proxy's in-flight requests, or teardown deadlocks.
	defer func() {
		close(hang)
		proxy.Close()
	}()

	r := bench.NewRunner(config.Default())
	r.SetWorkers(2)
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		Coordinator: proxy.URL, Name: "hb-hung", Runner: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		w.Run(wctx)
	}()
	defer func() {
		wcancel()
		select {
		case <-workerDone:
		case <-time.After(10 * time.Second):
			t.Error("worker did not exit after cancel: a hung heartbeat is wedging shutdown")
		}
	}()

	resp := postSweep(t, ts.URL, `{"workloads":["stream"],"schemes":["none","cachecraft"]}`)
	defer resp.Body.Close()
	records, errLines, trailer := readStream(t, resp.Body)
	if trailer == nil || !trailer.Done || len(errLines) != 0 || len(records) != 2 {
		t.Fatalf("sweep under hung heartbeats: records=%d errors=%v trailer=%+v",
			len(records), errLines, trailer)
	}
}
