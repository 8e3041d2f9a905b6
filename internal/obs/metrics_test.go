package obs_test

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"scalegnn/internal/obs"
	"scalegnn/internal/par"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("x.count")
	c.Add(3)
	c.Add(4)
	if c.Value() != 7 {
		t.Errorf("counter = %d, want 7", c.Value())
	}
	if reg.Counter("x.count") != c {
		t.Error("re-registration returned a different counter")
	}
	g := reg.Gauge("x.gauge")
	g.Set(1.5)
	g.Set(-2.25)
	if g.Value() != -2.25 {
		t.Errorf("gauge = %v, want -2.25", g.Value())
	}

	var nilC *obs.Counter
	nilC.Add(1) // must not panic
	if nilC.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var nilG *obs.Gauge
	nilG.Set(1)
	if nilG.Value() != 0 {
		t.Error("nil gauge has a value")
	}
}

func TestHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 556.2; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Errorf("p50 = %v, want 10 (3rd of 5 obs lands in (1,10] bucket)", q)
	}
	// The p99 observation lands in the overflow bucket; the quantile must
	// report the tracked maximum (500), never +Inf — serve-side SLO math
	// multiplies and compares these values.
	if q := h.Quantile(0.99); q != 500 {
		t.Errorf("p99 = %v, want 500 (max observation, overflow bucket)", q)
	}
	if m := h.Max(); m != 500 {
		t.Errorf("max = %v, want 500", m)
	}
	var empty *obs.Histogram
	empty.Observe(1)
	if empty.Quantile(0.5) != 0 || empty.Count() != 0 || empty.Max() != 0 {
		t.Error("nil histogram misbehaves")
	}
}

// TestHistogramConcurrent exercises the lock-free Observe path from
// par.Range workers; the count must be exact. Runs under -race in check.sh.
func TestHistogramConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("conc", obs.DefaultDurationBuckets)
	prev := par.SetMaxWorkers(4)
	defer par.SetMaxWorkers(prev)
	const n = 4096
	par.Range(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h.Observe(float64(i%100) * 1e-4)
		}
	})
	if h.Count() != n {
		t.Errorf("count = %d, want %d", h.Count(), n)
	}
}

func TestCounterRefGating(t *testing.T) {
	var ref obs.CounterRef
	ref.Add(5) // unbound: dropped
	reg := obs.NewRegistry()
	c := reg.Counter("gated")
	ref.Bind(c)
	ref.Add(3)
	if c.Value() != 3 {
		t.Errorf("bound counter = %d, want 3 (pre-bind adds dropped)", c.Value())
	}
	ref.Bind(nil)
	ref.Add(10)
	if c.Value() != 3 {
		t.Errorf("unbound ref still incremented: %d", c.Value())
	}

	var gref obs.GaugeRef
	gref.Set(1) // unbound: dropped
	g := reg.Gauge("gated.gauge")
	gref.Bind(g)
	gref.Set(0.75)
	if g.Value() != 0.75 {
		t.Errorf("bound gauge = %v, want 0.75", g.Value())
	}
}

func TestTrainHook(t *testing.T) {
	reg := obs.NewRegistry()
	h := obs.NewTrainHook(reg)
	for b := 0; b < 4; b++ {
		h.OnBatch(obs.BatchEnd{Epoch: 0, Batch: b, Size: 32})
	}
	h.OnEpoch(obs.EpochEnd{Epoch: 0, ValAcc: 0.8, Improved: true, Best: 0.8, Elapsed: 10 * time.Millisecond})
	h.OnBatch(obs.BatchEnd{Epoch: 1, Batch: 0, Size: 32})
	h.OnEpoch(obs.EpochEnd{Epoch: 1, ValAcc: 0.7, Best: 0.8, Elapsed: 20 * time.Millisecond})

	for name, want := range map[string]int64{"train.batches": 5, "train.epochs": 2, "train.batch_nodes": 160} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]float64{"train.val_acc": 0.7, "train.best_val_acc": 0.8} {
		if got := reg.Gauge(name).Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if n := reg.Histogram("train.epoch_seconds", nil).Count(); n != 2 {
		t.Errorf("train.epoch_seconds count = %d, want 2", n)
	}
	if r := reg.Gauge("train.batches_per_s").Value(); r <= 0 {
		t.Errorf("batches_per_s = %v, want > 0", r)
	}
}

func TestServeDebug(t *testing.T) {
	srv, err := obs.StartSession(obs.Options{MetricsAddr: "127.0.0.1:0", RuntimeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	srv.Registry.Counter("served.metric").Add(11)

	body := httpGet(t, fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err := obs.ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, body)
	}
	if !strings.Contains(body, "served_metric_total 11") {
		t.Errorf("/metrics missing registry counter: %s", body)
	}

	if body := httpGet(t, fmt.Sprintf("http://%s/debug/pprof/", srv.Addr())); !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/ index missing profiles: %.200s", body)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("close body: %v", err)
		}
	}()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(b)
}

func TestStartCPUProfile(t *testing.T) {
	path := t.TempDir() + "/cpu.pprof"
	sess, err := obs.StartSession(obs.Options{CPUProfile: path, RuntimeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to hold.
	x := 0.0
	for i := 0; i < 1_000_00; i++ {
		x += math.Sqrt(float64(i))
	}
	_ = x
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("profile not written: %v", err)
	}
}
