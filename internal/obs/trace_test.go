package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"scalegnn/internal/obs"
)

const sampleTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

func TestParseTraceparentValid(t *testing.T) {
	tc, ok := obs.ParseTraceparent(sampleTraceparent)
	if !ok {
		t.Fatal("sample traceparent rejected")
	}
	if got := tc.Trace.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %q", got)
	}
	if tc.Parent != 0x00f067aa0ba902b7 {
		t.Errorf("parent = %x, want f067aa0ba902b7", tc.Parent)
	}
	if !tc.Valid() {
		t.Error("parsed context should be Valid")
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"short":             "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",
		"long":              sampleTraceparent + "0",
		"version 01":        "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"uppercase hex":     "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"zero trace id":     "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero parent id":    "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"bad separator":     "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"non-hex trace":     "00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01",
		"non-hex parent":    "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902bz-01",
		"non-hex flags":     "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",
		"spaces for dashes": "00 4bf92f3577b34da6a3ce929d0e0e4736 00f067aa0ba902b7 01",
	}
	for name, h := range cases {
		if tc, ok := obs.ParseTraceparent(h); ok {
			t.Errorf("%s: %q accepted as %+v, want rejection", name, h, tc)
		}
	}
}

func TestFormatTraceparentRoundTrip(t *testing.T) {
	want, ok := obs.ParseTraceparent(sampleTraceparent)
	if !ok {
		t.Fatal("sample traceparent rejected")
	}
	h := obs.FormatTraceparent(want.Trace, want.Parent)
	if h != sampleTraceparent {
		t.Fatalf("round trip: %q != %q", h, sampleTraceparent)
	}
	got, ok := obs.ParseTraceparent(h)
	if !ok || got != want {
		t.Fatalf("re-parse: %+v ok=%v, want %+v", got, ok, want)
	}
}

func TestNewTraceContextMintsDistinctIDs(t *testing.T) {
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		sp := obs.StartRequest("req", obs.TraceContext{})
		trace := sp.TraceID()
		sp.End()
		if trace.IsZero() {
			t.Fatal("minted a zero trace id")
		}
		id := trace.String()
		if seen[id] {
			t.Fatalf("duplicate trace id %s after %d mints", id, i)
		}
		seen[id] = true
	}
}

func TestStartRequestMintsFreshTrace(t *testing.T) {
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	sp := obs.StartRequest("req", obs.TraceContext{})
	if !sp.Active() {
		t.Fatal("request span not active with tracer installed")
	}
	if sp.TraceID().IsZero() {
		t.Fatal("zero TraceContext should mint a fresh trace id")
	}
	sp.End()

	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d spans, want 1", len(recs))
	}
	if recs[0].Trace != sp.TraceID().String() {
		t.Errorf("record trace %q != span trace %q", recs[0].Trace, sp.TraceID())
	}
	if recs[0].Remote != "" {
		t.Errorf("minted trace has remote parent %q, want none", recs[0].Remote)
	}
}

func TestStartRequestInheritsInboundTrace(t *testing.T) {
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	tc, _ := obs.ParseTraceparent(sampleTraceparent)
	sp := obs.StartRequest("req", tc)
	child := sp.Child("score")
	if child.TraceID() != tc.Trace {
		t.Errorf("child trace %s, want inherited %s", child.TraceID(), tc.Trace)
	}
	child.End()
	sp.End()

	byName := map[string]obs.SpanRecord{}
	for _, r := range tr.Snapshot() {
		byName[r.Name] = r
	}
	req := byName["req"]
	if req.Trace != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("request trace = %q", req.Trace)
	}
	if req.Remote != "00f067aa0ba902b7" {
		t.Errorf("remote parent = %q, want 00f067aa0ba902b7", req.Remote)
	}
	if got := byName["score"].Trace; got != req.Trace {
		t.Errorf("child record trace %q != parent %q", got, req.Trace)
	}
	if byName["score"].Remote != "" {
		t.Errorf("child carries remote parent %q, want none", byName["score"].Remote)
	}
}

func TestStartRequestDisabledIsInert(t *testing.T) {
	obs.SetTracer(nil)
	tc, _ := obs.ParseTraceparent(sampleTraceparent)
	sp := obs.StartRequest("req", tc)
	if sp.Active() {
		t.Fatal("request span active with no tracer")
	}
	if sp.SpanID() != 0 || !sp.TraceID().IsZero() {
		t.Error("disabled request span leaked identity")
	}
	// All annotations must be guarded no-ops.
	sp.Link(7)
	sp.SetWait(time.Second)
	sp.SetCount(3)
	if d := sp.End(); d != 0 {
		t.Errorf("disabled End returned %v, want 0", d)
	}
}

func TestSpanLinksAndWaitInRecord(t *testing.T) {
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	batch := obs.Start("batch")
	sp := obs.StartRequest("req", obs.TraceContext{})
	sp.Link(batch.SpanID())
	sp.Link(0) // 0 is a disabled span's id; must be dropped
	sp.SetWait(123 * time.Microsecond)
	sp.End()
	batch.End()

	byName := map[string]obs.SpanRecord{}
	for _, r := range tr.Snapshot() {
		byName[r.Name] = r
	}
	req := byName["req"]
	if len(req.Links) != 1 || req.Links[0] != batch.SpanID() {
		t.Errorf("links = %v, want [%d]", req.Links, batch.SpanID())
	}
	if req.Wait != 123*time.Microsecond {
		t.Errorf("wait = %v, want 123µs", req.Wait)
	}
}

func TestContextCarriesSpan(t *testing.T) {
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	sp := obs.StartRequest("req", obs.TraceContext{})
	ctx := obs.ContextWithSpan(context.Background(), &sp)
	got := obs.SpanFromContext(ctx)
	if got != &sp {
		t.Fatal("SpanFromContext did not return the attached span")
	}
	got.Link(99)
	sp.End()
	recs := tr.Snapshot()
	if len(recs) != 1 || len(recs[0].Links) != 1 || recs[0].Links[0] != 99 {
		t.Errorf("annotation through context lost: %+v", recs)
	}
}

func TestSpanFromContextNeverNil(t *testing.T) {
	got := obs.SpanFromContext(context.Background())
	if got == nil {
		t.Fatal("SpanFromContext returned nil")
	}
	if got.Active() {
		t.Error("fallback span should be disabled")
	}
	// The shared fallback must tolerate concurrent annotation no-ops.
	got.Link(1)
	got.SetWait(time.Second)
	got.End()
}

func TestJSONLCarriesTraceFields(t *testing.T) {
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	tc, _ := obs.ParseTraceparent(sampleTraceparent)
	batch := obs.Start("batch")
	sp := obs.StartRequest("req", tc)
	sp.Link(batch.SpanID())
	sp.SetWait(time.Millisecond)
	sp.End()
	batch.Link(2) // fan-in back-link
	batch.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var sawTrace, sawLinks, sawRemote, sawWait bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec["trace_id"] == "4bf92f3577b34da6a3ce929d0e0e4736" {
			sawTrace = true
		}
		if _, ok := rec["links"]; ok {
			sawLinks = true
		}
		if rec["remote_parent"] == "00f067aa0ba902b7" {
			sawRemote = true
		}
		if w, ok := rec["wait_ns"].(float64); ok && w == float64(time.Millisecond) {
			sawWait = true
		}
	}
	if !sawTrace || !sawLinks || !sawRemote || !sawWait {
		t.Errorf("JSONL missing fields: trace=%v links=%v remote=%v wait=%v\n%s",
			sawTrace, sawLinks, sawRemote, sawWait, buf.String())
	}
}
