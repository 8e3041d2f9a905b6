package main

import (
	"runtime"
	"syscall"
	"time"

	"scalegnn/internal/distnet"
	"scalegnn/internal/graph"
	"scalegnn/internal/obs"
	"scalegnn/internal/par"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// probe is everything the traced run switches on inside the program: its
// span tracer, the per-package metric registries, and a MemStats baseline.
// The untraced run never builds one, so end-to-end numbers are measured
// with all of it off.
type probe struct {
	tracer *obs.Tracer
	began  time.Time // the tracer's clock origin, to within a clock read
	prev   *obs.Tracer
	reg    *obs.Registry
	mem0   runtime.MemStats
}

func startProbe() *probe {
	p := &probe{reg: obs.NewRegistry()}
	tensor.EnablePoolMetrics(p.reg)
	par.EnableMetrics(p.reg)
	train.EnableMetrics(p.reg)
	distnet.EnableMetrics(p.reg)
	p.began = time.Now()
	p.tracer = obs.NewTracer()
	p.prev = obs.SetTracer(p.tracer)
	runtime.ReadMemStats(&p.mem0)
	return p
}

// stop switches the program's observability off again and returns its
// spans.
func (p *probe) stop() []obs.SpanRecord {
	obs.SetTracer(p.prev)
	tensor.EnablePoolMetrics(nil)
	par.EnableMetrics(nil)
	train.EnableMetrics(nil)
	distnet.EnableMetrics(nil)
	return p.tracer.Snapshot()
}

func (p *probe) counter(name string) float64 { return float64(p.reg.Counter(name).Value()) }

// runtimeMetrics fills the runtime.* and par.*/tensor.pool layer metrics for
// ops operations run since startProbe.
func (p *probe) runtimeMetrics(out map[string]float64, ops int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	n := float64(ops)
	out["runtime.alloc_mb_per_op"] = ratio(float64(m.TotalAlloc-p.mem0.TotalAlloc)/1e6, n)
	out["runtime.allocs_per_op"] = ratio(float64(m.Mallocs-p.mem0.Mallocs), n)
	out["runtime.gc_cycles"] = float64(m.NumGC - p.mem0.NumGC)
	out["runtime.gc_pause_ms_total"] = float64(m.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6
	hits, misses := p.counter("tensor.pool_hits"), p.counter("tensor.pool_misses")
	out["tensor.pool_hit_ratio"] = ratio(hits, hits+misses)
	inline, parallel := p.counter("par.ranges_inline"), p.counter("par.ranges_parallel")
	out["par.tasks_per_op"] = ratio(p.counter("par.tasks"), n)
	out["par.inline_ratio"] = ratio(inline, inline+parallel)
}

// spanWindow sums the durations (ms) and counts the program spans named
// name that start inside [from, to).
func (p *probe) spanWindow(spans []obs.SpanRecord, name string, from, to time.Time) (durMS float64, n int) {
	lo, hi := from.Sub(p.began), to.Sub(p.began)
	for i := range spans {
		if s := &spans[i]; s.Name == name && s.Start >= lo && s.Start < hi {
			durMS += ms(s.Dur)
			n++
		}
	}
	return durMS, n
}

// peakRSSMB is the process's high-water resident set (getrusage; KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// liveHeapMB is HeapAlloc after two forced collections: what the run still
// references, independent of GC timing.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// applyTimer is a graph.ApplyHook that records one span per ApplyInto. With
// no inner hook it detaches itself, calls the real kernel path and
// re-attaches; with one (distnet's) it times that hook instead.
type applyTimer struct {
	g     *graph.CSR
	t     *track
	name  string
	inner graph.ApplyHook
	calls int
	cols  int // summed x.Cols over calls, for computed flops/bytes
}

func (h *applyTimer) Apply64(op *graph.Operator, x, dst *tensor.Mat[float64]) {
	h.t.begin(h.name)
	if h.inner != nil {
		h.inner.Apply64(op, x, dst)
	} else {
		h.g.SetApplyHook(nil)
		op.ApplyInto(x, dst)
		h.g.SetApplyHook(h)
	}
	h.t.end()
	h.calls++
	h.cols += x.Cols
}

func (h *applyTimer) Apply32(op *graph.OperatorOf[float32], x, dst *tensor.Mat[float32]) {
	h.t.begin(h.name)
	if h.inner != nil {
		h.inner.Apply32(op, x, dst)
	} else {
		h.g.SetApplyHook(nil)
		op.ApplyInto(x, dst)
		h.g.SetApplyHook(h)
	}
	h.t.end()
	h.calls++
	h.cols += x.Cols
}
