// Package obs is scalegnn's observability substrate: tracing spans,
// runtime metrics, and profiling hooks for the training and propagation
// stack. The comparative GNN-system studies the tutorial surveys all start
// from the same question — where does time and memory go: sampling, gather,
// compute, or propagation? — and this package makes a run answer it with a
// machine-readable timeline instead of ad-hoc benchmarks.
//
// Three pillars, all stdlib-only:
//
//   - Spans (this file + export.go): Tracer records nested, goroutine-safe
//     wall-clock spans; WriteJSONL exports the timeline as one JSON object
//     per line, ordered by start time.
//   - Metrics (metrics.go): a Registry of counters, gauges, and fixed-bucket
//     histograms; CounterRef/GaugeRef gate hot-path instrumentation behind a
//     single atomic pointer load so disabled metrics cost nothing.
//   - Profiling (http.go, opened by StartSession): an opt-in listener serves
//     the registry as Prometheus text (prom.go) next to net/http/pprof, and
//     a CPU profile can be captured to a file with runtime/pprof.
//
// Overhead contract: with no tracer installed, Start/Child/End
// are a single atomic load plus a nil check — zero allocations, no clock
// reads (verified by BenchmarkSpanDisabled and the check.sh guard). With a
// tracer installed, a span costs two clock reads and one mutex-guarded
// append. Observation never touches RNG or model state, so fingerprint
// outputs are bitwise-identical with tracing on or off.
//
// Layering: obs imports only the standard library. Every instrumented
// package (internal/train, internal/tensor, internal/par, internal/ppr,
// internal/sampling, internal/partition, internal/core) imports obs, never
// the other way around. The train.Hook payload types live here (hook.go)
// precisely so obs.TrainHook can satisfy train.Hook without a cycle;
// internal/train re-exports them as type aliases.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects completed spans. It is safe for concurrent use: spans may
// be started and ended from any goroutine (par.Range workers interleave
// with the main goroutine), and each End appends one record under a mutex.
// The zero value is NOT ready; use NewTracer.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []SpanRecord
}

// NewTracer returns a tracer whose span offsets are relative to now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// SpanRecord is one completed span. Start is the offset from the tracer's
// construction; Count is the span's optional work measure (rows gathered,
// pushes performed, batch size — 0 when unset). Request-scoped spans
// (StartRequest) additionally carry the 128-bit trace id they belong to,
// the remote parent span id from an inbound W3C traceparent header, span
// links to correlated-but-not-nested spans (a request span links to the
// batch-forward span it was scored in), and the time the work spent queued
// before it ran.
type SpanRecord struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Label  string        `json:"label,omitempty"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Count  int64         `json:"count,omitempty"`
	Trace  string        `json:"trace_id,omitempty"`
	Remote string        `json:"remote_parent,omitempty"`
	Links  []uint64      `json:"links,omitempty"`
	Wait   time.Duration `json:"wait_ns,omitempty"`
}

// Span is an in-flight timing section. The zero Span is the disabled span:
// every method is a cheap no-op, which is what the package-level Start
// returns when no tracer is installed. Spans are values; keep them in a
// local variable and call End exactly once (the obs-span-end gnnlint check
// enforces this).
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	label  string
	count  int64
	start  time.Time
	trace  TraceID
	remote uint64
	links  []uint64
	wait   time.Duration
	// on marks a live (traced) span; the zero Span is off. A plain
	// bool keeps the End/Child/Active guards within the inlining budget,
	// which is what makes the disabled fast path a few nanoseconds.
	on bool
}

// Start begins a root span on the tracer.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, id: t.ids.Add(1), name: name, start: time.Now(), on: true}
}

// Child begins a span nested under s. On a disabled span it returns another
// disabled span, so instrumentation can nest unconditionally.
func (s *Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.child(name)
}

// child is the traced slow path of Child, outlined so the nil guard inlines.
// Children inherit the parent's trace id, so every span under a request (or
// a traced training run) can be grouped by one trace_id.
func (s *Span) child(name string) Span {
	return Span{tr: s.tr, id: s.tr.ids.Add(1), parent: s.id, name: name, start: time.Now(), trace: s.trace, on: true}
}

// Active reports whether the span records anything. Call sites that would
// allocate to build a label (fmt.Sprintf and friends) must guard on it.
func (s *Span) Active() bool { return s.on }

// SetLabel attaches a free-form label (experiment ID, transform name) to
// the span's record. No-op when the span is disabled — but building the
// label string may allocate, so guard with Active when the label is
// computed.
func (s *Span) SetLabel(label string) {
	if s.tr != nil {
		s.label = label
	}
}

// SetCount attaches a work measure (rows, pushes, iterations) to the span's
// record. No-op when disabled.
func (s *Span) SetCount(n int64) {
	if s.tr != nil {
		s.count = n
	}
}

// AddCount accumulates into the span's work measure. No-op when disabled.
func (s *Span) AddCount(n int64) {
	if s.tr != nil {
		s.count += n
	}
}

// SpanID returns the span's tracer-local id (0 on a disabled span). It is
// what Link targets and what an outbound traceparent header advertises as
// the parent span id.
func (s *Span) SpanID() uint64 { return s.id }

// TraceID returns the 128-bit trace id the span belongs to (the zero
// TraceID on disabled or non-request spans).
func (s *Span) TraceID() TraceID { return s.trace }

// Link records a correlation to another span that is neither parent nor
// child — the fan-in edge: a request span links to the shared
// batch-forward span that scored it, and the batch span links back to
// every request span it served. No-op when the span is disabled or the
// target id is 0 (a disabled span's SpanID).
func (s *Span) Link(id uint64) {
	if s.tr != nil && id != 0 {
		s.links = append(s.links, id)
	}
}

// SetWait records how long the span's work sat queued before running (a
// serving request's time in the dispatcher queue). No-op when disabled.
func (s *Span) SetWait(d time.Duration) {
	if s.tr != nil {
		s.wait = d
	}
}

// End completes the span, returning its wall-clock duration, and appends
// its record to the tracer's buffer; on a disabled span End returns 0
// without reading the clock. End must be called exactly once; a second
// call records a duplicate span.
func (s *Span) End() time.Duration {
	if !s.on {
		return 0
	}
	return s.end()
}

// end is the traced slow path of End, outlined so the disabled guard
// inlines.
func (s *Span) end() time.Duration {
	d := time.Since(s.start)
	t := s.tr
	rec := SpanRecord{
		ID: s.id, Parent: s.parent, Name: s.name, Label: s.label,
		Start: s.start.Sub(t.epoch), Dur: d, Count: s.count,
		Links: s.links, Wait: s.wait,
	}
	if !s.trace.IsZero() {
		rec.Trace = s.trace.String()
	}
	if s.remote != 0 {
		rec.Remote = hexUint64(s.remote)
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
	return d
}

// Len returns the number of completed spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Snapshot returns a copy of the completed spans sorted by start offset
// (ties broken by ID, which is allocation order).
func (t *Tracer) Snapshot() []SpanRecord {
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.spans...)
	t.mu.Unlock()
	sortSpans(out)
	return out
}

// active is the process-wide tracer used by the package-level Start. A nil
// pointer means tracing is disabled — the guarded fast path.
var active atomic.Pointer[Tracer]

// SetTracer installs (or, with nil, removes) the process-wide tracer and
// returns the previous one. Install before the run being traced starts;
// spans started on the old tracer still End into it.
func SetTracer(t *Tracer) *Tracer {
	if t == nil {
		return active.Swap(nil)
	}
	return active.Swap(t)
}

// Start begins a root span on the process-wide tracer. With no tracer
// installed it returns the disabled span without reading the clock.
func Start(name string) Span {
	t := active.Load()
	if t == nil {
		return Span{}
	}
	return t.Start(name)
}
