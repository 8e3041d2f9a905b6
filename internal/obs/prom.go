package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// prom.go renders a Registry in the Prometheus text exposition format
// (version 0.0.4) — the registry's one exposition, so any standard scraper
// can collect it. Rendering discipline:
//
//   - metric names are sanitized once (dots → underscores) and cached per
//     registration generation, together with preformatted bucket `le`
//     labels, so a scrape allocates no per-sample state — values are read
//     straight from the atomics into a stack scratch buffer;
//   - counters follow the `_total` naming convention;
//   - histograms render cumulative `_bucket{le=...}` series plus `_sum`
//     and `_count`, with `_count` derived from the same bucket sweep that
//     produced the `+Inf` bucket, so the two can never disagree even while
//     observations land concurrently.
//
// The matching strict parser, ValidateExposition, lives with the tests
// (prom_validate_test.go): they use it to prove a scrape is well-formed
// without importing any Prometheus client library.

// PrometheusContentType is the Content-Type of the text exposition format.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promLayout is the cached, sorted rendering plan for one registration
// generation.
type promLayout struct {
	gen      uint64
	counters []promCounter
	gauges   []promGauge
	hists    []promHist
}

type promCounter struct {
	name string // sanitized, with _total suffix
	c    *Counter
}

type promGauge struct {
	name string
	g    *Gauge
}

type promHist struct {
	name string
	h    *Histogram
	le   []string // preformatted upper-bound labels, one per finite bucket
}

// promName sanitizes a registry metric name into the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names are dotted ("serve.request_seconds");
// dots and any other illegal byte become underscores.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// layout returns the cached rendering plan, rebuilding it only when a
// registration happened since it was built.
func (r *Registry) layout() *promLayout {
	gen := r.gen.Load()
	if l := r.prom.Load(); l != nil && l.gen == gen {
		return l
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	gen = r.gen.Load() // re-read under the lock: registration bumps gen first
	if l := r.prom.Load(); l != nil && l.gen == gen {
		return l
	}
	l := &promLayout{gen: gen}
	for name, c := range r.counters {
		n := promName(name)
		if !strings.HasSuffix(n, "_total") {
			n += "_total"
		}
		l.counters = append(l.counters, promCounter{name: n, c: c})
	}
	for name, g := range r.gauges {
		l.gauges = append(l.gauges, promGauge{name: promName(name), g: g})
	}
	for name, h := range r.histograms {
		ph := promHist{name: promName(name), h: h}
		for _, b := range h.bounds {
			ph.le = append(ph.le, strconv.FormatFloat(b, 'g', -1, 64))
		}
		l.hists = append(l.hists, ph)
	}
	sort.Slice(l.counters, func(i, j int) bool { return l.counters[i].name < l.counters[j].name })
	sort.Slice(l.gauges, func(i, j int) bool { return l.gauges[i].name < l.gauges[j].name })
	sort.Slice(l.hists, func(i, j int) bool { return l.hists[i].name < l.hists[j].name })
	r.prom.Store(l)
	return l
}

// promWriter accumulates the first write error so render loops stay flat
// (bufio errors are sticky; this just stops formatting work early too).
type promWriter struct {
	w   *bufio.Writer
	err error
}

func (pw *promWriter) str(s string) {
	if pw.err == nil {
		_, pw.err = pw.w.WriteString(s)
	}
}

func (pw *promWriter) bytes(b []byte) {
	if pw.err == nil {
		_, pw.err = pw.w.Write(b)
	}
}

// WritePrometheus renders every registered metric in the text exposition
// format, names sorted within each kind. Safe for concurrent use with
// registration and observation.
func (r *Registry) WritePrometheus(w io.Writer) error {
	l := r.layout()
	pw := &promWriter{w: bufio.NewWriter(w)}
	var scratch [32]byte
	for _, c := range l.counters {
		pw.str("# TYPE ")
		pw.str(c.name)
		pw.str(" counter\n")
		pw.str(c.name)
		pw.str(" ")
		pw.bytes(strconv.AppendInt(scratch[:0], c.c.Value(), 10))
		pw.str("\n")
	}
	for _, g := range l.gauges {
		pw.str("# TYPE ")
		pw.str(g.name)
		pw.str(" gauge\n")
		pw.str(g.name)
		pw.str(" ")
		pw.bytes(appendPromFloat(scratch[:0], g.g.Value()))
		pw.str("\n")
	}
	for _, h := range l.hists {
		pw.str("# TYPE ")
		pw.str(h.name)
		pw.str(" histogram\n")
		// One sweep produces the cumulative buckets, the +Inf bucket, and
		// _count: monotone by construction, and _count == +Inf always.
		var cum int64
		for i, le := range h.le {
			cum += h.h.counts[i].Load()
			pw.str(h.name)
			pw.str("_bucket{le=\"")
			pw.str(le)
			pw.str("\"} ")
			pw.bytes(strconv.AppendInt(scratch[:0], cum, 10))
			pw.str("\n")
		}
		cum += h.h.counts[len(h.le)].Load()
		pw.str(h.name)
		pw.str("_bucket{le=\"+Inf\"} ")
		pw.bytes(strconv.AppendInt(scratch[:0], cum, 10))
		pw.str("\n")
		pw.str(h.name)
		pw.str("_sum ")
		pw.bytes(appendPromFloat(scratch[:0], h.h.Sum()))
		pw.str("\n")
		pw.str(h.name)
		pw.str("_count ")
		pw.bytes(strconv.AppendInt(scratch[:0], cum, 10))
		pw.str("\n")
	}
	if pw.err != nil {
		return pw.err
	}
	return pw.w.Flush()
}

// appendPromFloat formats v the way the exposition format expects,
// including the +Inf/-Inf/NaN spellings.
func appendPromFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// MetricsHandler serves the registry as a Prometheus scrape target — the
// `/metrics` endpoint mounted on the obs debug server and on gnnserve.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		// A mid-body failure means the scraper hung up; there is no
		// channel left to report it on.
		_ = r.WritePrometheus(w)
	})
}
