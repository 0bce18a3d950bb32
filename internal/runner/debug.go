package runner

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"

	"gpusecmem/internal/telemetry"
)

// NewDebugHandler builds the sweep debug mux:
//
//	/          index of available routes
//	/metrics   Prometheus text-format exposition of telemetry.Default
//	/debug/pprof/*  net/http/pprof profiles for long sweeps
//
// The handler is safe to serve while a sweep runs.
func NewDebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "gpusecmem sweep debug endpoint\n\n"+
			"  /metrics        Prometheus text-format exposition (sweep progress: gpusecmem_sweep_*)\n"+
			"  /debug/pprof/   CPU/heap/goroutine profiles\n")
	})
	mux.Handle("/metrics", telemetry.Default.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startDebugServer binds addr and serves the debug mux until the
// returned stop function is called. Binding failures are reported to
// out rather than aborting the sweep — observability must never kill
// the work it observes.
func startDebugServer(addr string, out io.Writer) func() {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(out, "debug: %v (endpoint disabled)\n", err)
		return func() {}
	}
	srv := &http.Server{Handler: NewDebugHandler()}
	go srv.Serve(ln)
	fmt.Fprintf(out, "debug: serving http://%s/ (/metrics, /debug/pprof)\n", ln.Addr())
	return func() { srv.Close() }
}
