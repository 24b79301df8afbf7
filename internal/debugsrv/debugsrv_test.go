package debugsrv

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cachecraft/internal/obs"
)

// TestDebugHandlerRoutes: the shared -debug-addr mux answers pprof,
// the registry's /metrics exposition, and /healthz.
func TestDebugHandlerRoutes(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("cachecraft_debug_probe_total", "test counter").Inc()
	ts := httptest.NewServer(debugHandler(reg))
	defer ts.Close()
	for path, want := range map[string]string{
		"/debug/pprof/": "goroutine",
		"/metrics":      "cachecraft_debug_probe_total 1",
		"/healthz":      "ok ",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("%s: status %d, body lacks %q:\n%s", path, resp.StatusCode, want, body)
		}
	}
}
