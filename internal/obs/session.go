package obs

import (
	"fmt"
	"os"
	"time"
)

// Options selects which observability outputs a process run wants. The zero
// value disables everything — StartSession then costs nothing and Close is a
// no-op, so CLIs can wire the flags through unconditionally.
type Options struct {
	// TraceOut, when non-empty, installs a process-wide tracer and writes
	// the completed span timeline to this path as JSONL on Close.
	TraceOut string
	// MetricsAddr, when non-empty, serves the registry as /metrics and the
	// pprof handlers on this address (e.g. "localhost:6060").
	MetricsAddr string
	// CPUProfile, when non-empty, captures a CPU profile of the run into
	// this path (stopped on Close).
	CPUProfile string
	// RuntimeEvery sets the runtime sampler period (heap, GC, goroutine
	// gauges). Zero defaults to 10s whenever any output is enabled; negative
	// disables the sampler.
	RuntimeEvery time.Duration
}

// Session is the process-level observability state a CLI run owns: the
// installed tracer, the metrics registry, the debug listener, and the
// profile stopper. Always Close it — that is where trace files are written.
type Session struct {
	// Tracer is non-nil when Options.TraceOut was set.
	Tracer *Tracer
	// Registry is non-nil whenever any output is enabled; callers pass it to
	// the per-package EnableMetrics hooks (tensor, par, train).
	Registry *Registry

	traceFile   *os.File
	srv         *debugServer
	stopProf    func() error
	stopRuntime func()
}

// StartSession activates the selected outputs. On error, anything already
// activated is torn down before returning.
func StartSession(opt Options) (*Session, error) {
	s := &Session{}
	if opt.TraceOut == "" && opt.MetricsAddr == "" && opt.CPUProfile == "" {
		return s, nil
	}
	s.Registry = NewRegistry()
	if opt.RuntimeEvery >= 0 {
		s.stopRuntime = StartRuntimeSampler(s.Registry, opt.RuntimeEvery)
	}
	if opt.TraceOut != "" {
		// Open eagerly so a bad path fails before the run, not after it.
		f, err := os.Create(opt.TraceOut)
		if err != nil {
			return nil, fmt.Errorf("obs: trace out: %w", err)
		}
		s.Tracer = NewTracer()
		s.traceFile = f
		SetTracer(s.Tracer)
	}
	if opt.MetricsAddr != "" {
		srv, err := serveDebug(opt.MetricsAddr, s.Registry)
		if err != nil {
			_ = s.teardown() // the listener error is the one worth reporting
			return nil, fmt.Errorf("obs: metrics listener: %w", err)
		}
		s.srv = srv
	}
	if opt.CPUProfile != "" {
		stop, err := startCPUProfile(opt.CPUProfile)
		if err != nil {
			_ = s.teardown() // the profile error is the one worth reporting
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		s.stopProf = stop
	}
	return s, nil
}

// Addr returns the debug listener's bound address ("" when disabled) —
// useful when MetricsAddr used port 0.
func (s *Session) Addr() string {
	if s.srv == nil {
		return ""
	}
	return s.srv.Addr()
}

// Close stops profiling, writes the trace file, shuts the listener down, and
// uninstalls the tracer. Safe on a zero-output session.
func (s *Session) Close() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.stopProf != nil {
		keep(s.stopProf())
		s.stopProf = nil
	}
	if s.stopRuntime != nil {
		s.stopRuntime()
		s.stopRuntime = nil
	}
	if s.Tracer != nil {
		SetTracer(nil)
		keep(s.Tracer.WriteJSONL(s.traceFile))
		s.Tracer = nil
	}
	if s.traceFile != nil {
		keep(s.traceFile.Close())
		s.traceFile = nil
	}
	keep(s.teardown())
	return firstErr
}

// teardown uninstalls the tracer, closes the trace file, and releases the
// listener (shared by Close and StartSession's error paths; Close writes the
// trace and nils traceFile before calling teardown).
func (s *Session) teardown() error {
	if s.stopRuntime != nil {
		s.stopRuntime()
		s.stopRuntime = nil
	}
	if s.Tracer != nil {
		SetTracer(nil)
		s.Tracer = nil
	}
	if s.traceFile != nil {
		_ = s.traceFile.Close() // error path: the original error is the one worth reporting
		s.traceFile = nil
	}
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	s.srv = nil
	return err
}
