package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkSchema asserts what the result line promises — every metric of the
// catalog present, finite, with its unit, no failed op — and nothing about
// time, so the verdict does not depend on the machine.
func checkSchema(t *testing.T, res *outcome, failures []string, defs []metricDef) {
	t.Helper()
	if len(failures) > 0 || !res.Correct || res.Failed != 0 {
		t.Errorf("output checks failed: correct=%t failed=%d %v", res.Correct, res.Failed, failures)
	}
	if res.Attempted < 1 {
		t.Errorf("attempted = %d", res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, catalog has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", d.Name, v.Value)
		case v.Unit != d.Unit || v.Unit == "":
			t.Errorf("metric %s unit %q, want %q", d.Name, v.Unit, d.Unit)
		}
	}
}

// TestSmoke runs all five workloads untraced and one of each kind traced at
// the smoke size (runWorkload's smoke argument).
func TestSmoke(t *testing.T) {
	tmp := t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, failures, err := runWorkload(&w, 42, 0, false, true, tmp, "")
			if err != nil {
				t.Fatal(err)
			}
			checkSchema(t, res, failures, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.Name)
				}
			}
		})
	}
	for _, name := range []string{"fullbatch_gcn", "serve_mix", "dist_gcn_2shard"} {
		t.Run(name+"/traced", func(t *testing.T) {
			spans := tmp + "/" + name + ".spans.jsonl"
			res, failures, err := runWorkload(findWorkload(name), 42, 0, true, true, tmp, spans)
			if err != nil {
				t.Fatal(err)
			}
			checkSchema(t, res, failures, perLayer)
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestCatalog(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q named twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q better=%q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why of %d chars", w.Name, len(w.Why))
		}
	}
}

// TestManifest keeps the committed BENCHMARK.json equal to the catalog.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the catalog: regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

// TestVerdict: a set too small for quartiles, or wider than the bound, is
// never judged.
func TestVerdict(t *testing.T) {
	d := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102}
	slow := []float64{150, 151, 149, 150, 152}
	wide := []float64{100, 140, 80, 120, 100}
	for _, c := range []struct {
		name   string
		va, vb []float64
		want   string
	}{
		{"same", tight, tight, "ok"},
		{"slower", tight, slow, "regressed"},
		{"faster", slow, tight, "ok"},
		{"one run each", tight[:1], slow[:1], "unresolved"},
		{"three runs", tight[:3], slow[:3], "unresolved"},
		{"wide base", wide, slow, "unresolved"},
	} {
		if got := verdict(c.va, c.vb, d); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	up := metricDef{Name: "work_per_s", Better: "higher", Bound: 0.10}
	if got := verdict(slow, tight, up); got != "regressed" {
		t.Errorf("higher-is-better drop: verdict %q, want regressed", got)
	}
}
