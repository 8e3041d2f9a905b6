package obs_test

import (
	"testing"

	"scalegnn/internal/obs"
)

// The five disabled-path bodies below are the overhead contract of the
// tracer and the metric refs when observability is off: every
// instrumentation point in the hot path runs one of them per call, so each
// must compile down to an atomic load and a handful of branches — no clock
// reads, no allocation. TestDisabledPathAllocsNothing asserts the
// allocation half in tier-1; the Benchmark* twins time the same bodies.

// spanDisabled is a whole Start/Child/SetCount/End sequence.
func spanDisabled() {
	sp := obs.Start("bench.disabled")
	child := sp.Child("nested")
	child.SetCount(7)
	child.End()
	sp.End()
}

// spanDisabledStartEnd is the minimal guarded pair — the cost a single
// disabled instrumentation point adds to a kernel.
func spanDisabledStartEnd() {
	sp := obs.Start("x")
	sp.End()
}

// spanDisabledDeferred is the dominant call pattern: the deferred
// pointer-receiver call must not force the span to escape to the heap.
func spanDisabledDeferred() {
	sp := obs.Start("bench.disabled")
	defer sp.End()
}

var benchTraceparent, _ = obs.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")

// requestSpanDisabled extends the contract to the request-span path: with
// no tracer installed, StartRequest must return the disabled span without
// minting a trace id or reading the clock, and every annotation (Link,
// SetWait) must be a guarded no-op.
func requestSpanDisabled() {
	sp := obs.StartRequest("bench.request", benchTraceparent)
	sp.Link(42)
	sp.SetWait(1)
	sp.End()
}

var unboundRef obs.CounterRef

// counterRefDisabled is the unbound-ref fast path: one atomic pointer load,
// no increment (the tensor pool / par.Range instrumentation runs this on
// every call when metrics are off).
func counterRefDisabled() { unboundRef.Add(1) }

func TestDisabledPathAllocsNothing(t *testing.T) {
	obs.SetTracer(nil)
	for _, c := range []struct {
		name string
		body func()
	}{
		{"SpanDisabled", spanDisabled},
		{"SpanDisabledStartEnd", spanDisabledStartEnd},
		{"SpanDisabledDeferred", spanDisabledDeferred},
		{"RequestSpanDisabled", requestSpanDisabled},
		{"CounterRefDisabled", counterRefDisabled},
	} {
		if got := testing.AllocsPerRun(1000, c.body); got != 0 {
			t.Errorf("%s: %v allocs per call with observability off, want 0", c.name, got)
		}
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	obs.SetTracer(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spanDisabled()
	}
}

func BenchmarkSpanDisabledStartEnd(b *testing.B) {
	obs.SetTracer(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spanDisabledStartEnd()
	}
}

func BenchmarkSpanDisabledDeferred(b *testing.B) {
	obs.SetTracer(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spanDisabledDeferred()
	}
}

func BenchmarkRequestSpanDisabled(b *testing.B) {
	obs.SetTracer(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		requestSpanDisabled()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := obs.Start("bench.enabled")
		sp.End()
	}
}

func BenchmarkCounterRefDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		counterRefDisabled()
	}
}

func BenchmarkCounterRefBound(b *testing.B) {
	reg := obs.NewRegistry()
	var ref obs.CounterRef
	ref.Bind(reg.Counter("bench.bound"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ref.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := obs.NewRegistry()
	h := reg.Histogram("bench.hist", obs.DefaultDurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
}
