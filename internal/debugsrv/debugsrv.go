// Package debugsrv is the -debug-addr side listener of the long-running
// binaries. It lives apart from internal/serve so that only the mains
// that open it link net/http/pprof, whose import registers handlers on
// http.DefaultServeMux.
package debugsrv

import (
	"log"
	"net/http"
	"net/http/pprof"

	"cachecraft/internal/obs"
	"cachecraft/internal/version"
)

// Serve starts the -debug-addr side listener that cachecraft-serve and
// cachecraft-worker share. It serves net/http/pprof under
// /debug/pprof/, reg's Prometheus exposition on /metrics, and /healthz,
// in the background for the life of the process. It has its own mux so
// profiling never rides a public listener and can stay bound to
// loopback.
func Serve(addr string, reg *obs.Registry) {
	h := debugHandler(reg)
	go func() {
		if err := http.ListenAndServe(addr, h); err != nil {
			log.Printf("debug listener: %v", err)
		}
	}()
	log.Printf("pprof, /metrics and /healthz on http://%s/", addr)
}

func debugHandler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok " + version.String() + "\n"))
	})
	return mux
}
