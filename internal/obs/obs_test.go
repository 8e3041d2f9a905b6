package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"scalegnn/internal/obs"
	"scalegnn/internal/par"
)

func TestSpanNesting(t *testing.T) {
	tr := obs.NewTracer()
	root := tr.Start("run")
	child := root.Child("epoch")
	grand := child.Child("batch")
	grand.SetCount(7)
	grand.End()
	child.End()
	if d := root.End(); d <= 0 {
		t.Errorf("root duration %v, want > 0", d)
	}

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]obs.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["epoch"].Parent != byName["run"].ID {
		t.Errorf("epoch parent %d, want run id %d", byName["epoch"].Parent, byName["run"].ID)
	}
	if byName["batch"].Parent != byName["epoch"].ID {
		t.Errorf("batch parent %d, want epoch id %d", byName["batch"].Parent, byName["epoch"].ID)
	}
	if byName["run"].Parent != 0 {
		t.Errorf("run should have no parent, got %d", byName["run"].Parent)
	}
	if byName["batch"].Count != 7 {
		t.Errorf("batch count %d, want 7", byName["batch"].Count)
	}
	for _, s := range spans {
		if s.Dur < 0 {
			t.Errorf("span %s has negative duration %v", s.Name, s.Dur)
		}
	}
}

// tracerInstalled reports whether a process-wide tracer is installed,
// leaving it in place.
func tracerInstalled() bool {
	prev := obs.SetTracer(nil)
	obs.SetTracer(prev)
	return prev != nil
}

func TestDisabledSpanIsInert(t *testing.T) {
	if tracerInstalled() {
		t.Fatal("tracer unexpectedly installed")
	}
	sp := obs.Start("anything")
	if sp.Active() {
		t.Error("span from disabled tracer reports Active")
	}
	child := sp.Child("nested")
	sp.SetCount(3)
	sp.SetLabel("x")
	if d := child.End(); d != 0 {
		t.Errorf("disabled child End = %v, want 0", d)
	}
	if d := sp.End(); d != 0 {
		t.Errorf("disabled span End = %v, want 0", d)
	}
}

func TestSetTracerSwap(t *testing.T) {
	a, b := obs.NewTracer(), obs.NewTracer()
	if prev := obs.SetTracer(a); prev != nil {
		t.Errorf("unexpected previous tracer %v", prev)
	}
	if prev := obs.SetTracer(b); prev != a {
		t.Error("swap did not return the previous tracer")
	}
	if prev := obs.SetTracer(nil); prev != b {
		t.Error("active tracer not the installed one")
	}
	if tracerInstalled() {
		t.Error("tracer still enabled after SetTracer(nil)")
	}
}

// TestConcurrentSpans emits spans from par.Range workers interleaved with
// the main goroutine — the pattern the instrumented propagation kernels
// produce. Run under -race via scripts/check.sh.
func TestConcurrentSpans(t *testing.T) {
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	prev := par.SetMaxWorkers(4)
	defer par.SetMaxWorkers(prev)

	const n = 512
	root := obs.Start("parallel-root")
	par.Range(n, 1, func(lo, hi int) {
		chunk := root.Child("chunk")
		for i := lo; i < hi; i++ {
			sp := chunk.Child("item")
			sp.SetCount(int64(i))
			sp.End()
		}
		chunk.End()
	})
	root.End()

	spans := tr.Snapshot()
	items, chunks, roots := 0, 0, 0
	for _, s := range spans {
		switch s.Name {
		case "item":
			items++
		case "chunk":
			chunks++
		case "parallel-root":
			roots++
		}
	}
	if items != n {
		t.Errorf("got %d item spans, want %d", items, n)
	}
	if chunks != par.Workers(n, 1) {
		t.Errorf("got %d chunk spans, want %d", chunks, par.Workers(n, 1))
	}
	if roots != 1 {
		t.Errorf("got %d root spans, want 1", roots)
	}
	// IDs must be unique even under concurrent allocation.
	seen := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestWriteJSONLValidAndOrdered(t *testing.T) {
	tr := obs.NewTracer()
	root := tr.Start("a")
	time.Sleep(100 * time.Microsecond)
	mid := tr.Start("b")
	mid.SetLabel("lbl")
	mid.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	prevStart := int64(-1)
	for i, line := range lines {
		var rec struct {
			ID      uint64 `json:"id"`
			Name    string `json:"name"`
			Label   string `json:"label"`
			StartNS int64  `json:"start_ns"`
			DurNS   int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if rec.StartNS < prevStart {
			t.Errorf("line %d starts at %d, before previous %d — not ordered by start", i, rec.StartNS, prevStart)
		}
		prevStart = rec.StartNS
	}
	if !strings.Contains(lines[0], `"name":"a"`) {
		t.Errorf("first line should be span a (earliest start): %s", lines[0])
	}
	if !strings.Contains(lines[1], `"label":"lbl"`) {
		t.Errorf("span b should carry its label: %s", lines[1])
	}
}
