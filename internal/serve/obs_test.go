package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"scalegnn/internal/obs"
)

// TestTracePropagationConcurrent is the fan-in tracing contract under
// -race: 8 concurrent /predict calls, each carrying its own inbound W3C
// traceparent, coalesce into shared batch forwards — yet every request
// span must keep its own trace id, link the batch-forward span that scored
// it, record queue wait, and echo its trace id back in the response
// header.
func TestTracePropagationConcurrent(t *testing.T) {
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	e := NewEngine(Config{Window: 20 * time.Millisecond})
	defer e.Close()
	e.Swap(newFake("T", 1), SwapInfo{Source: "test"})
	s := startServer(t, e, nil)

	const clients = 8
	type result struct {
		inTrace  string // the trace id we sent
		outTrace string // the trace id the response header carried
		err      error
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		//lint:ignore naked-go concurrent request clients under test; joined via WaitGroup
		go func(i int) {
			defer wg.Done()
			inbound := fmt.Sprintf("00-%032x-%016x-01", i+1, i+1)
			req, err := http.NewRequest(http.MethodGet,
				fmt.Sprintf("http://%s/predict?node=%d", s.Addr(), i), nil)
			if err != nil {
				results[i].err = err
				return
			}
			req.Header.Set("Traceparent", inbound)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				results[i].err = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				results[i].err = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			results[i].inTrace = inbound[3:35]
			echo, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
			if !ok {
				results[i].err = fmt.Errorf("bad response traceparent %q", resp.Header.Get("Traceparent"))
				return
			}
			results[i].outTrace = echo.Trace.String()
		}(i)
	}
	wg.Wait()

	wantTraces := map[string]bool{}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("client %d: %v", i, r.err)
		}
		if r.outTrace != r.inTrace {
			t.Errorf("client %d: response trace %s != inbound %s", i, r.outTrace, r.inTrace)
		}
		wantTraces[r.inTrace] = true
	}
	if len(wantTraces) != clients {
		t.Fatalf("expected %d distinct traces, got %d", clients, len(wantTraces))
	}

	// The spans must tell the same story: one request span per trace, each
	// linking a batch-forward span, each having waited in the queue.
	batchIDs := map[uint64]bool{}
	batchLinks := map[uint64]bool{}
	for _, rec := range tr.Snapshot() {
		if rec.Name == "serve.batch_forward" {
			batchIDs[rec.ID] = true
			for _, l := range rec.Links {
				batchLinks[l] = true
			}
		}
	}
	if len(batchIDs) == 0 {
		t.Fatal("no serve.batch_forward spans recorded")
	}
	gotTraces := map[string]bool{}
	for _, rec := range tr.Snapshot() {
		if rec.Name != "serve.request" {
			continue
		}
		gotTraces[rec.Trace] = true
		if rec.Remote == "" {
			t.Errorf("request span %d lost its remote parent", rec.ID)
		}
		if len(rec.Links) != 1 || !batchIDs[rec.Links[0]] {
			t.Errorf("request span %d links %v, want exactly one batch-forward id from %v",
				rec.ID, rec.Links, batchIDs)
		}
		if rec.Wait <= 0 {
			t.Errorf("request span %d recorded no queue wait", rec.ID)
		}
		if !batchLinks[rec.ID] {
			t.Errorf("batch-forward spans do not link back to request span %d", rec.ID)
		}
	}
	for tr := range wantTraces {
		if !gotTraces[tr] {
			t.Errorf("trace %s sent but never recorded; got %v", tr, gotTraces)
		}
	}
}

// TestPredictUntracedHasNoHeader pins the disabled path: with no tracer,
// /predict answers without a Traceparent header and records nothing.
func TestPredictUntracedHasNoHeader(t *testing.T) {
	obs.SetTracer(nil)
	e := NewEngine(Config{})
	defer e.Close()
	e.Swap(newFake("T", 1), SwapInfo{Source: "test"})
	s := startServer(t, e, nil)

	req, err := http.NewRequest(http.MethodGet, "http://"+s.Addr()+"/predict?node=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Traceparent"); got != "" {
		t.Errorf("untraced response carries Traceparent %q", got)
	}
}

// TestMetricsEndpoint scrapes /metrics after traffic and validates the
// exposition with the strict hand-rolled parser.
func TestMetricsEndpoint(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	e.Swap(newFake("T", 1), SwapInfo{Source: "test"})
	s := startServer(t, e, nil)

	if code := getJSON(t, "http://"+s.Addr()+"/predict?node=1", nil); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("scrape invalid: %v\n%s", err, body)
	}
	for _, needle := range []string{
		"serve_requests_total 1",
		`serve_request_seconds_bucket{le="+Inf"} 1`,
		"serve_request_seconds_sum",
		"serve_request_seconds_count 1",
		"serve_batch_rows_bucket",
	} {
		if !strings.Contains(string(body), needle) {
			t.Errorf("scrape missing %q\n%s", needle, body)
		}
	}
}

// TestMethodNotAllowed sweeps every route with a verb it does not accept
// and expects 405 plus the Allow header naming what it does.
func TestMethodNotAllowed(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	e.Swap(newFake("T", 1), SwapInfo{Source: "test"})
	s := startServer(t, e, nil)

	cases := []struct {
		method, path, allow string
	}{
		{http.MethodDelete, "/predict", "GET, POST"},
		{http.MethodPut, "/predict", "GET, POST"},
		{http.MethodPost, "/healthz", "GET"},
		{http.MethodDelete, "/healthz", "GET"},
		{http.MethodPost, "/metrics", "GET"},
		{http.MethodGet, "/admin/swap", "POST"},
		{http.MethodDelete, "/admin/swap", "POST"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, "http://"+s.Addr()+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow = %q, want %q", c.method, c.path, got, c.allow)
		}
	}
}

func TestSLOTrackerBurnMath(t *testing.T) {
	// Objective 0.9 → 10% error budget. 5 breaches in 10 requests is a 50%
	// breach rate: burn = 0.5/0.1 = 5.
	tk := newSLOTracker(SLOConfig{Target: 10 * time.Millisecond, Objective: 0.9, Window: 3 * time.Second}, nil)
	base := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		tk.observe(time.Millisecond, base) // meets target
		tk.observe(20*time.Millisecond, base)
	}
	st := tk.status(base)
	if st.Requests != 10 || st.Breached != 5 {
		t.Fatalf("window = %d/%d, want 5/10", st.Breached, st.Requests)
	}
	if st.BurnRate < 4.99 || st.BurnRate > 5.01 {
		t.Errorf("burn rate = %v, want 5.0", st.BurnRate)
	}
	if !st.Degraded {
		t.Error("burn 5x threshold 1.0 should degrade")
	}

	// The window forgets: after 2x the window everything has expired.
	later := tk.status(base.Add(6 * time.Second))
	if later.Requests != 0 || later.BurnRate != 0 || later.Degraded {
		t.Errorf("expired window = %+v, want empty and healthy", later)
	}
}

func TestSLOTrackerDefaultsAndNil(t *testing.T) {
	if tk := newSLOTracker(SLOConfig{}, nil); tk != nil {
		t.Fatal("zero Target should disable the tracker")
	}
	var tk *sloTracker
	tk.observe(time.Second, time.Now()) // nil-safe
	if st := tk.status(time.Now()); st != nil {
		t.Errorf("nil tracker status = %+v, want nil", st)
	}

	tk = newSLOTracker(SLOConfig{Target: time.Millisecond}, nil)
	if tk.cfg.Objective != 0.99 || tk.cfg.Window != 60*time.Second || tk.cfg.BurnThreshold != 1.0 {
		t.Errorf("defaults = %+v", tk.cfg)
	}
}

func TestEngineHealthDegrades(t *testing.T) {
	e := NewEngine(Config{SLO: SLOConfig{Target: time.Nanosecond, Objective: 0.99, Window: 10 * time.Second}})
	defer e.Close()
	if h := e.Health(); h.Status != "unavailable" {
		t.Fatalf("health before swap = %q, want unavailable", h.Status)
	}
	e.Swap(newFake("T", 1), SwapInfo{Source: "test"})
	if h := e.Health(); h.Status != "ok" || h.SLO == nil {
		t.Fatalf("health after swap = %q (slo=%v), want ok with SLO status", h.Status, h.SLO)
	}

	// Every real request breaches a 1ns target.
	s := startServer(t, e, nil)
	for i := 0; i < 5; i++ {
		if code := getJSON(t, fmt.Sprintf("http://%s/predict?node=%d", s.Addr(), i), nil); code != http.StatusOK {
			t.Fatalf("predict status %d", code)
		}
	}
	h := e.Health()
	if h.Status != "degraded" || h.SLO == nil || !h.SLO.Degraded {
		t.Fatalf("health under breach = %+v, want degraded", h)
	}
	// /healthz still answers 200 — the status field carries the signal.
	var resp struct {
		Status string `json:"status"`
		Model  string `json:"model"`
		SLO    *SLOStatus
	}
	if code := getJSON(t, "http://"+s.Addr()+"/healthz", &resp); code != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", code)
	}
	if resp.Status != "degraded" || resp.Model != "T" {
		t.Errorf("healthz = %+v", resp)
	}
	if v := e.Registry().Gauge("serve.slo_burn_rate").Value(); v < 1 {
		t.Errorf("serve.slo_burn_rate gauge = %v, want >= 1", v)
	}
}

// TestFailQueuedCountsFailures drives failQueued directly against a
// dispatcher-less engine: every request drained at shutdown must get
// ErrClosed and count into serve.requests_failed.
func TestFailQueuedCountsFailures(t *testing.T) {
	reg := obs.NewRegistry()
	e := &Engine{
		reqs:    make(chan *request, 4),
		mFailed: reg.Counter("serve.requests_failed"),
	}
	r1 := &request{done: make(chan error, 1)}
	r2 := &request{done: make(chan error, 1)}
	e.reqs <- r1
	e.reqs <- r2
	e.failQueued()
	for i, r := range []*request{r1, r2} {
		select {
		case err := <-r.done:
			if err != ErrClosed {
				t.Errorf("request %d: err = %v, want ErrClosed", i, err)
			}
		default:
			t.Errorf("request %d: no completion signal", i)
		}
	}
	if got := e.mFailed.Value(); got != 2 {
		t.Errorf("serve.requests_failed = %d, want 2", got)
	}
	if got := reg.Counter("serve.requests_failed").Value(); got != 2 {
		t.Errorf("registry counter = %d, want 2", got)
	}
}
