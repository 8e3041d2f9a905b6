package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry names and owns a process's metrics. All allocation happens at
// registration time (Counter/Gauge/Histogram lookups create the metric on
// first use); the instruments themselves are lock-free atomics, so the
// training hot path records without allocating or blocking. Safe for
// concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	// gen counts registrations; the Prometheus exposition caches its
	// sorted, name-sanitized sample layout until gen moves, so a scrape
	// allocates no per-sample state (prom.go).
	gen  atomic.Uint64
	prom atomic.Pointer[promLayout]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing count. The nil *Counter is valid
// and ignores Add — instrumentation can hold one unconditionally.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n; no-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float64 instrument. The nil *Gauge ignores Set.
type Gauge struct{ bits atomic.Uint64 }

// Set records the gauge's current value; no-op on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last value set (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a streaming histogram over a fixed, registration-time bucket
// layout: observation v lands in the first bucket with v <= bound, or the
// implicit +Inf overflow bucket. Observe is a binary search plus one atomic
// increment — no allocation, no lock.
type Histogram struct {
	bounds []float64      // ascending upper bounds
	counts []atomic.Int64 // len(bounds)+1, last is +Inf overflow
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	max    atomic.Uint64  // float64 bits of the largest observation, CAS-maxed
	n      atomic.Int64
}

// DefaultDurationBuckets is the bucket layout (in seconds) used for span
// and batch duration histograms: 1µs to ~100s, roughly 4 per decade.
var DefaultDurationBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10, 25, 50, 100,
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
	// -Inf is below every observation, so the CAS-max in Observe needs no
	// "first observation" special case.
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value; no-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.n.Add(1)
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the total of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Max returns the largest observation so far (0 with no observations).
func (h *Histogram) Max() float64 {
	if h == nil || h.n.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// observation (0 with no observations) — the streaming approximation used
// for p50/p99 reporting. When the quantile lands in the +Inf overflow
// bucket the tracked maximum observation is returned instead of +Inf, so
// latency-SLO arithmetic downstream always sees a finite number.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i == len(h.bounds) {
				return h.Max()
			}
			return h.bounds[i]
		}
	}
	return h.Max()
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.gen.Add(1)
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.gen.Add(1)
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with the
// given bucket bounds; later calls with the same name reuse the first
// layout.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
		r.gen.Add(1)
	}
	return h
}

// CounterRef gates hot-path counting behind one atomic pointer load:
// instrumented packages declare a package-level CounterRef and call Add
// unconditionally. Until Bind is called the ref is disabled and Add is a
// load-and-branch — no atomic increment, no overhead worth measuring
// (BenchmarkCounterRefDisabled pins 0 allocs).
type CounterRef struct{ p atomic.Pointer[Counter] }

// Bind points the ref at a registered counter (nil unbinds).
func (r *CounterRef) Bind(c *Counter) { r.p.Store(c) }

// Add increments the bound counter, if any.
func (r *CounterRef) Add(n int64) {
	if c := r.p.Load(); c != nil {
		c.v.Add(n)
	}
}

// GaugeRef is CounterRef's last-value sibling.
type GaugeRef struct{ p atomic.Pointer[Gauge] }

// Bind points the ref at a registered gauge (nil unbinds).
func (r *GaugeRef) Bind(g *Gauge) { r.p.Store(g) }

// Set records v on the bound gauge, if any.
func (r *GaugeRef) Set(v float64) {
	if g := r.p.Load(); g != nil {
		g.Set(v)
	}
}
