package obs_test

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"scalegnn/internal/obs"
)

func TestSessionZeroOptionsIsInert(t *testing.T) {
	sess, err := obs.StartSession(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Tracer != nil || sess.Registry != nil || sess.Addr() != "" {
		t.Errorf("zero-option session allocated state: %+v", sess)
	}
	if tracerInstalled() {
		t.Error("zero-option session installed a tracer")
	}
	if err := sess.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

func TestSessionWritesTraceOnClose(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	sess, err := obs.StartSession(obs.Options{TraceOut: path})
	if err != nil {
		t.Fatal(err)
	}
	if !tracerInstalled() {
		t.Fatal("session did not install the tracer")
	}
	sp := obs.Start("session.work")
	sp.End()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if tracerInstalled() {
		t.Error("tracer still installed after Close")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("trace has %d lines, want 1:\n%s", len(lines), data)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("trace line not valid JSON: %v", err)
	}
	if rec["name"] != "session.work" {
		t.Errorf("trace holds %v, want the session.work span", rec["name"])
	}
	// Double Close must be safe (the CLIs close explicitly before os.Exit on
	// failure paths and again via defer on the normal path).
	if err := sess.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestSessionBadTracePathFailsFast(t *testing.T) {
	_, err := obs.StartSession(obs.Options{TraceOut: t.TempDir() + "/no/such/dir/t.jsonl"})
	if err == nil {
		t.Fatal("StartSession accepted an unwritable trace path")
	}
	if tracerInstalled() {
		t.Error("failed StartSession left a tracer installed")
	}
}

func TestSessionMetricsListener(t *testing.T) {
	sess, err := obs.StartSession(obs.Options{MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Registry == nil {
		t.Fatal("session with metrics listener has no registry")
	}
	if sess.Addr() == "" {
		t.Fatal("listener has no bound address")
	}
	sess.Registry.Counter("session.metric").Add(1)
	body := httpGet(t, "http://"+sess.Addr()+"/metrics")
	if err := obs.ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, body)
	}
	if !strings.Contains(body, "session_metric_total 1") {
		t.Errorf("/metrics missing session metric: %.200s", body)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}
