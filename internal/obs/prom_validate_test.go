package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

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
