package cluster_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cachecraft/internal/cluster"
	"cachecraft/internal/obs"
	"cachecraft/internal/serve"
	"cachecraft/internal/store"
)

// FuzzRequestBodies posts arbitrary bytes to /v1/simulate and to the
// coordinator's /v1/cluster/sweep, both read through cluster.DecodeBody.
// Every body must get a 2xx or 4xx answer, never a panic, and the
// handler must return: a malformed or invalid body is rejected at once,
// and a valid one is answered (from the store, or by a quick simulation)
// or streams until the client gives up after clientWait. No worker runs,
// so a valid sweep naming a cell the store lacks waits that long.
func FuzzRequestBodies(f *testing.F) {
	const clientWait, handlerBound = 50 * time.Millisecond, 10 * time.Second
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	reg := obs.NewRegistry()
	co := cluster.New(cluster.Options{Base: quickBase(), Store: st, Registry: reg})
	f.Cleanup(co.Close)
	h := serve.New(serve.Options{
		Base: quickBase(), Store: st, MaxInFlight: 2, MaxQueue: 4,
		Registry: reg, Coordinator: co,
	}).Handler()

	for _, seed := range []string{
		`{"workload":"stream","scheme":"none"}`,
		`{"workloads":["stream"],"schemes":["none"]}`,
		`{"workloads":["stream"],"schemes":["none"],"config":{"NumSMs":0}}`,
		`{"workloads":["nope"],"schemes":["none"]}`,
		`{"workload":"stream","scheme":7}`,
		`{"workload":"stream"`,
		`{}`, `null`, `[]`, `""`, ``, `not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/simulate", "/v1/cluster/sweep"} {
			ctx, cancel := context.WithTimeout(context.Background(), clientWait)
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			done := make(chan struct{})
			go func() {
				defer close(done)
				h.ServeHTTP(rec, req)
			}()
			select {
			case <-done:
			case <-time.After(handlerBound):
				t.Fatalf("%s: handler still running %v after the request began, body %q", path, handlerBound, body)
			}
			cancel()
			if c := rec.Code; c/100 != 2 && c/100 != 4 {
				t.Fatalf("%s: status %d for body %q: %s", path, c, body, rec.Body.Bytes())
			}
		}
	})
}
