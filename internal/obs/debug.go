package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// publishOnce guards the expvar registrations (expvar.Publish panics on a
// duplicate name).
var publishOnce sync.Once

// DebugMux returns a fresh mux with the standard debug surface:
// net/http/pprof under /debug/pprof/, expvar (including every obs counter
// and gauge, live) under /debug/vars, and every counter, gauge and
// registered histogram in Prometheus text format under /metrics.
// Embedding servers (cmd/wivfid) mount their own routes next to these on
// the returned mux.
func DebugMux() *http.ServeMux {
	publishOnce.Do(func() {
		expvar.Publish("wivfi_counters", expvar.Func(func() any { return CounterTotals() }))
		expvar.Publish("wivfi_gauges", expvar.Func(func() any { return GaugeReadings() }))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", promHandler)
	return mux
}

// StartDebugServer starts an HTTP server on addr exposing DebugMux. It
// returns the bound address — pass "localhost:0" for an ephemeral port —
// and the server itself so embedding processes can stop it cleanly
// (Shutdown for graceful drain, Close for immediate teardown). The serve
// loop runs on its own goroutine until the server is shut down.
func StartDebugServer(addr string) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: DebugMux()}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown/Close is the normal exit
	return ln.Addr().String(), srv, nil
}
