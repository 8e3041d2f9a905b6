package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	runtimepprof "runtime/pprof"
	"time"
)

// debugServer is a running metrics/profiling HTTP listener.
type debugServer struct {
	srv *http.Server
	ln  net.Listener
}

// Addr returns the bound listen address (useful with ":0" in tests).
func (s *debugServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *debugServer) Close() error { return s.srv.Close() }

// serveDebug starts an HTTP listener exposing the registry and the runtime
// profiler:
//
//	/metrics       — Prometheus text exposition of the registry (prom.go)
//	/debug/pprof/  — net/http/pprof index (profile, heap, goroutine, ...)
//
// The registry may be nil (pprof only, no /metrics). The server runs until
// Close; it is the CLI's -metrics-addr listener, deliberately not wired
// into any training code path — observation stays out-of-band.
func serveDebug(addr string, reg *Registry) (*debugServer, error) {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", MetricsHandler(reg))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler: mux,
		// A slow or stalled client must not be able to wedge the listener.
		// WriteTimeout stays generous because /debug/pprof/profile and
		// /debug/pprof/trace stream for their ?seconds= duration (30s by
		// default) before the response body is written.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	//lint:ignore naked-go background HTTP listener, not data-parallel work; lifetime bounded by Close
	go func() {
		// Serve returns ErrServerClosed on Close; anything else means the
		// listener died, which out-of-band observation must not escalate
		// into a training failure.
		err := srv.Serve(ln)
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "obs: metrics server: %v\n", err)
		}
	}()
	return &debugServer{srv: srv, ln: ln}, nil
}

// startCPUProfile begins a runtime/pprof CPU profile into path, returning a
// stop function that finishes the profile and closes the file — the
// file-based profiling hook behind the CLIs' -pprof flag.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	if err := runtimepprof.StartCPUProfile(f); err != nil {
		//lint:ignore unchecked-error profile never started; the create error is the one to report
		f.Close()
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	return func() error {
		runtimepprof.StopCPUProfile()
		return f.Close()
	}, nil
}
