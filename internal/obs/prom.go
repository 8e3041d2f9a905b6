package obs

import (
	"bufio"
	"fmt"
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
// ValidateExposition is the matching strict hand-rolled parser: the tests
// use it to prove a scrape is well-formed without importing any Prometheus
// client library.

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

// ValidateExposition is a strict hand-rolled parser for the text
// exposition format (no Prometheus client dependency). It rejects:
// malformed lines, illegal metric names, unparsable values, samples with
// no preceding # TYPE, duplicate TYPE declarations, and — for histograms —
// missing +Inf buckets, non-cumulative bucket sequences, out-of-order le
// bounds, missing _sum, and _count disagreeing with the +Inf bucket.
func ValidateExposition(data []byte) error {
	types := make(map[string]string)
	type histState struct {
		lastLe   float64
		lastCum  float64
		infSeen  bool
		inf      float64
		sumSeen  bool
		cntSeen  bool
		cnt      float64
		buckets  int
		declared bool
	}
	hists := make(map[string]*histState)
	histOf := func(name string) (*histState, string, bool) {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base, found := strings.CutSuffix(name, suffix)
			if found && types[base] == "histogram" {
				h := hists[base]
				if h == nil {
					h = &histState{lastLe: math.Inf(-1), declared: true}
					hists[base] = h
				}
				return h, suffix, true
			}
		}
		return nil, "", false
	}

	lineNo := 0
	for len(data) > 0 {
		lineNo++
		line := data
		if i := strings.IndexByte(string(data), '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		s := string(line)
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, "#") {
			fields := strings.Fields(s)
			if len(fields) < 2 || (fields[1] != "TYPE" && fields[1] != "HELP") {
				return fmt.Errorf("prom: line %d: malformed comment %q", lineNo, s)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("prom: line %d: TYPE wants `# TYPE name kind`", lineNo)
				}
				name, kind := fields[2], fields[3]
				if !validPromName(name) {
					return fmt.Errorf("prom: line %d: illegal metric name %q", lineNo, name)
				}
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("prom: line %d: unknown metric type %q", lineNo, kind)
				}
				if _, dup := types[name]; dup {
					return fmt.Errorf("prom: line %d: duplicate TYPE for %q", lineNo, name)
				}
				types[name] = kind
			}
			continue
		}

		name, labels, value, err := parsePromSample(s)
		if err != nil {
			return fmt.Errorf("prom: line %d: %w", lineNo, err)
		}
		if _, typed := types[name]; !typed {
			h, suffix, isHist := histOf(name)
			if !isHist {
				return fmt.Errorf("prom: line %d: sample %q has no preceding # TYPE", lineNo, name)
			}
			switch suffix {
			case "_bucket":
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("prom: line %d: histogram bucket without le label", lineNo)
				}
				bound := math.Inf(1)
				if le != "+Inf" {
					bound, err = strconv.ParseFloat(le, 64)
					if err != nil {
						return fmt.Errorf("prom: line %d: bad le %q", lineNo, le)
					}
				}
				if bound <= h.lastLe {
					return fmt.Errorf("prom: line %d: bucket bounds not ascending (%v after %v)", lineNo, bound, h.lastLe)
				}
				if value < h.lastCum {
					return fmt.Errorf("prom: line %d: bucket counts not cumulative (%v after %v)", lineNo, value, h.lastCum)
				}
				h.lastLe, h.lastCum, h.buckets = bound, value, h.buckets+1
				if math.IsInf(bound, 1) {
					h.infSeen, h.inf = true, value
				}
			case "_sum":
				h.sumSeen = true
			case "_count":
				h.cntSeen, h.cnt = true, value
			}
		}
	}
	for name, h := range hists {
		if !h.infSeen {
			return fmt.Errorf("prom: histogram %q has no +Inf bucket", name)
		}
		if !h.sumSeen {
			return fmt.Errorf("prom: histogram %q has no _sum", name)
		}
		if !h.cntSeen {
			return fmt.Errorf("prom: histogram %q has no _count", name)
		}
		if h.cnt != h.inf {
			return fmt.Errorf("prom: histogram %q: _count %v != +Inf bucket %v", name, h.cnt, h.inf)
		}
	}
	return nil
}

// validPromName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parsePromSample parses one sample line: name[{label="value",...}] value
// [timestamp].
func parsePromSample(s string) (name string, labels map[string]string, value float64, err error) {
	labels = map[string]string{}
	rest := s
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		name, rest = rest[:i], rest[i+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return "", nil, 0, fmt.Errorf("malformed label in %q", s)
			}
			key := rest[:eq]
			if !validPromName(key) {
				return "", nil, 0, fmt.Errorf("illegal label name %q", key)
			}
			rest = rest[eq+2:]
			end := -1
			for j := 0; j < len(rest); j++ {
				if rest[j] == '\\' {
					j++
					continue
				}
				if rest[j] == '"' {
					end = j
					break
				}
			}
			if end < 0 {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", s)
			}
			labels[key] = rest[:end]
			rest = rest[end+1:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			return "", nil, 0, fmt.Errorf("malformed label block in %q", s)
		}
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("sample %q has no value", s)
		}
		name, rest = rest[:sp], rest[sp:]
	}
	if !validPromName(name) {
		return "", nil, 0, fmt.Errorf("illegal metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("sample %q wants `name value [timestamp]`", s)
	}
	value, err = parsePromValue(fields[0])
	if err != nil {
		return "", nil, 0, err
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

// parsePromValue parses a sample value, honoring the +Inf/-Inf/NaN tokens.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "Nan":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	return v, nil
}
