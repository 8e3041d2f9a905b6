package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/distnet"
	"scalegnn/internal/obs"
	"scalegnn/internal/par"
	"scalegnn/internal/serve"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// TestMetricNamesDocumented binds every metric a process can publish to one
// registry — the five package binders, a serving engine with an SLO and the
// runtime sampler — and requires the registered set to equal DESIGN.md's
// Observability name table, kind for kind. The comparison is made on the
// Prometheus exposition, the registry's one wire form.
func TestMetricNamesDocumented(t *testing.T) {
	reg := obs.NewRegistry()
	binders := []func(*obs.Registry){
		tensor.EnablePoolMetrics, par.EnableMetrics, train.EnableMetrics,
		ckpt.EnableMetrics, distnet.EnableMetrics,
	}
	for _, bind := range binders {
		bind(reg)
	}
	t.Cleanup(func() {
		for _, bind := range binders {
			bind(nil)
		}
	})
	eng := serve.NewEngine(serve.Config{Registry: reg, SLO: serve.SLOConfig{Target: time.Second}})
	defer eng.Close()
	stop := obs.StartRuntimeSampler(reg, time.Hour)
	defer stop()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{} // exposition name -> kind
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			got[f[2]] = f[3]
		}
	}
	want := documentedMetrics(t)
	var bad []string
	for name, kind := range want {
		if got[name] != kind {
			bad = append(bad, fmt.Sprintf("DESIGN.md documents %s as a %s; registered as %q", name, kind, got[name]))
		}
	}
	for name, kind := range got {
		if _, ok := want[name]; !ok {
			bad = append(bad, fmt.Sprintf("registered %s %s is not in DESIGN.md's Observability table", kind, name))
		}
	}
	slices.Sort(bad)
	for _, b := range bad {
		t.Error(b)
	}
	// The epoch-latency histogram keeps the duration bucket layout.
	if n := strings.Count(buf.String(), "train_epoch_seconds_bucket{"); n != len(obs.DefaultDurationBuckets)+1 {
		t.Errorf("train.epoch_seconds has %d buckets, want %d", n, len(obs.DefaultDurationBuckets)+1)
	}
}

// documentedMetrics parses the metric name table of DESIGN.md's
// Observability section into exposition name -> kind.
func documentedMetrics(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	name := regexp.MustCompile("`([a-z_.]+)`")
	out := map[string]string{}
	inSection, inTable := false, false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "## "):
			inSection = strings.HasPrefix(line, "## Observability")
		case inSection && line == "| Name | Kind | Meaning |":
			inTable = true
		case inTable && !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable:
			cells := strings.Split(line, "|")
			kind := strings.TrimSpace(cells[2])
			if !slices.Contains([]string{"counter", "gauge", "histogram"}, kind) {
				continue // the separator row
			}
			for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
				n := strings.ReplaceAll(m[1], ".", "_")
				if kind == "counter" {
					n += "_total"
				}
				out[n] = kind
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no metric table in DESIGN.md's Observability section")
	}
	return out
}
