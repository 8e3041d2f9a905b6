package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalegnn/internal/dataset"
	"scalegnn/internal/models"
	"scalegnn/internal/par"
	"scalegnn/internal/tensor"
)

// fakeModel answers a fixed class for every node, so a response's
// provenance is visible in its predictions: a response mixing classes
// would prove two models answered one request.
type fakeModel struct {
	name    string
	nodes   int
	classes int
	class   int // every node predicts this class

	scoreCalls atomic.Int64
	rowsScored atomic.Int64
}

func (f *fakeModel) Name() string { return f.name }
func (f *fakeModel) Nodes() int   { return f.nodes }
func (f *fakeModel) Classes() int { return f.classes }

func (f *fakeModel) Score(idx []int, out *tensor.Matrix) error {
	f.scoreCalls.Add(1)
	f.rowsScored.Add(int64(len(idx)))
	for i := range idx {
		row := out.Row(i)
		for j := range row {
			row[j] = 0
		}
		row[f.class] = 1
	}
	return nil
}

func newFake(name string, class int) *fakeModel {
	return &fakeModel{name: name, nodes: 1000, classes: 3, class: class}
}

func TestEngineRejects(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	ctx := context.Background()

	if _, err := e.Predict(ctx, []int{0}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("predict before swap: err = %v, want ErrNoModel", err)
	}
	if _, ok := e.Current(); ok {
		t.Fatal("Current reported a model before any Swap")
	}

	e.Swap(newFake("A", 0), SwapInfo{Source: "test"})
	if _, err := e.Predict(ctx, nil); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := e.Predict(ctx, []int{-1}); !errors.Is(err, ErrBadNode) {
		t.Fatalf("negative node: err = %v, want ErrBadNode", err)
	}
	if _, err := e.Predict(ctx, []int{1000}); !errors.Is(err, ErrBadNode) {
		t.Fatalf("out-of-range node: err = %v, want ErrBadNode", err)
	}

	ctx2, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.Predict(ctx2, []int{1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: err = %v, want context.Canceled", err)
	}

	e.Close()
	e.Close() // idempotent
	if _, err := e.Predict(ctx, []int{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("predict after close: err = %v, want ErrClosed", err)
	}
}

func TestEnginePredicts(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	m := newFake("A", 2)
	gen := e.Swap(m, SwapInfo{Source: "test"})

	p, err := e.Predict(context.Background(), []int{5, 7, 5})
	if err != nil {
		t.Fatal(err)
	}
	if p.Model != "A" || p.Generation != gen {
		t.Fatalf("got model %q gen %d, want A gen %d", p.Model, p.Generation, gen)
	}
	for i, c := range p.Predictions {
		if c != 2 {
			t.Fatalf("prediction[%d] = %d, want 2", i, c)
		}
	}
	for _, l := range p.Logits {
		if len(l) != 3 || l[2] != 1 {
			t.Fatalf("unexpected logits %v", l)
		}
	}
	info, ok := e.Current()
	if !ok || info.Model != "A" || info.Nodes != 1000 || info.Classes != 3 {
		t.Fatalf("Current = %+v, ok=%v", info, ok)
	}
}

// TestEngineCoalesces proves the batching window merges concurrent
// single-node requests into far fewer model forwards.
func TestEngineCoalesces(t *testing.T) {
	e := NewEngine(Config{Window: 20 * time.Millisecond})
	defer e.Close()
	m := newFake("A", 0)
	e.Swap(m, SwapInfo{Source: "test"})

	const reqs = 24
	var wg sync.WaitGroup
	errs := make([]error, reqs)
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		//lint:ignore naked-go concurrent request clients under test; joined via WaitGroup
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Predict(context.Background(), []int{i})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if calls := m.scoreCalls.Load(); calls >= reqs {
		t.Fatalf("no coalescing: %d Score calls for %d requests", calls, reqs)
	}
	if rows := m.rowsScored.Load(); rows != reqs {
		t.Fatalf("scored %d rows, want %d", rows, reqs)
	}
}

// TestEngineMaxBatch proves one oversized request is still scored whole
// while coalescing respects the row cap across requests.
func TestEngineMaxBatch(t *testing.T) {
	e := NewEngine(Config{MaxBatch: 4})
	defer e.Close()
	m := newFake("A", 1)
	e.Swap(m, SwapInfo{Source: "test"})

	nodes := make([]int, 10)
	for i := range nodes {
		nodes[i] = i
	}
	p, err := e.Predict(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Predictions) != 10 {
		t.Fatalf("got %d predictions, want 10", len(p.Predictions))
	}
}

func TestEngineCache(t *testing.T) {
	e := NewEngine(Config{CacheSize: 8})
	defer e.Close()
	m := newFake("A", 1)
	e.Swap(m, SwapInfo{Source: "test"})

	ctx := context.Background()
	if _, err := e.Predict(ctx, []int{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Predict(ctx, []int{3}); err != nil {
		t.Fatal(err)
	}
	if calls := m.scoreCalls.Load(); calls != 1 {
		t.Fatalf("cached node recomputed: %d Score calls, want 1", calls)
	}
	st := e.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.Requests != 2 || st.P99Ms <= 0 {
		t.Fatalf("stats = %+v", st)
	}

	// A swap installs a cold cache: the same node misses again.
	e.Swap(newFake("B", 2), SwapInfo{Source: "test"})
	p, err := e.Predict(ctx, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Predictions[0] != 2 {
		t.Fatalf("post-swap prediction = %d, want 2 (stale cache?)", p.Predictions[0])
	}
}

func TestLRU(t *testing.T) {
	c := newLRU(2)
	c.add(1, []float64{1})
	c.add(2, []float64{2})
	if _, ok := c.get(1); !ok { // refresh 1 → 2 becomes LRU
		t.Fatal("miss on cached node 1")
	}
	c.add(3, []float64{3})
	if _, ok := c.get(2); ok {
		t.Fatal("node 2 should have been evicted")
	}
	if _, ok := c.get(1); !ok {
		t.Fatal("recently-used node 1 evicted")
	}
	if l, ok := c.get(3); !ok || l[0] != 3 {
		t.Fatalf("node 3: %v, %v", l, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	c.add(3, []float64{33}) // refresh in place
	if l, _ := c.get(3); l[0] != 33 {
		t.Fatalf("refresh did not replace logits: %v", l)
	}

	var nilCache *lruCache = newLRU(0)
	if nilCache != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	nilCache.add(1, []float64{1})
	if _, ok := nilCache.get(1); ok {
		t.Fatal("nil cache returned a hit")
	}
	if nilCache.len() != 0 {
		t.Fatal("nil cache has nonzero len")
	}
}

// TestHotSwapConsistency is the torture test behind the zero-downtime
// claim: readers hammer Predict while the main goroutine swaps between
// two models; every response must be answered wholly by one model —
// uniform predictions, and a Model/Generation pair that matches them.
// Run with -race: it also proves the swap path is data-race-free.
func TestHotSwapConsistency(t *testing.T) {
	e := NewEngine(Config{Window: 100 * time.Microsecond, CacheSize: 64})
	defer e.Close()

	// Swaps alternate A, B, A, B, … so generation parity determines the
	// model: odd generations are A, even are B. That lets readers verify
	// Model/Generation pairing without racing the swapper.
	swap := func(name string, class int) {
		e.Swap(newFake(name, class), SwapInfo{Source: "test"})
	}
	swap("A", 0)

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		//lint:ignore naked-go reader goroutines racing the swapper under test; joined via WaitGroup
		go func(r int) {
			defer wg.Done()
			nodes := []int{r, r + 100, r + 200, r + 300}
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, err := e.Predict(context.Background(), nodes)
				if err != nil {
					fail <- "predict: " + err.Error()
					return
				}
				want := 0
				if p.Model == "B" {
					want = 1
				}
				for _, c := range p.Predictions {
					if c != want {
						fail <- "mixed-generation response: model " + p.Model
						return
					}
				}
				expect := "A"
				if p.Generation%2 == 0 {
					expect = "B"
				}
				if p.Model != expect {
					fail <- "generation does not match model " + p.Model
					return
				}
			}
		}(r)
	}

	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			swap("B", 1)
		} else {
			swap("A", 0)
		}
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if st := e.Stats(); st.Swaps != 51 {
		t.Fatalf("swap counter = %d, want 51", st.Swaps)
	}
}

// TestEngineScoresRealModelConcurrently holds the single-dispatcher
// invariant with a real model, whose Score reuses pooled scratch buffers
// with no locking: eight clients call Predict at once through a cache too
// small to hide misses, and every logit must equal offline Score
// bitwise. Scoring from a second goroutine (a second dispatcher, or
// Predict scoring on the request goroutine) races on that scratch, which
// the -race pass reports. It stays on under -short for that pass.
func TestEngineScoresRealModelConcurrently(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Nodes: 200, Classes: 3, AvgDegree: 6, Homophily: 0.8,
		FeatureDim: 10, NoiseStd: 1.0, TrainFrac: 0.5, ValFrac: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := models.DefaultTrainConfig()
	cfg.Epochs, cfg.Patience, cfg.BatchSize, cfg.Hidden, cfg.Seed = 5, 0, 64, 8, 7
	m, err := models.NewSGC(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(ds, cfg); err != nil {
		t.Fatal(err)
	}
	n := ds.G.N
	want := tensor.New(n, ds.NumClasses)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if err := m.Score(all, want); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(Config{CacheSize: 1})
	defer e.Close()
	e.Swap(m, SwapInfo{Source: "fit"})
	// One par worker per client: eight goroutines whatever GOMAXPROCS is.
	const clients, calls = 8, 200
	prev := par.SetMaxWorkers(clients)
	defer par.SetMaxWorkers(prev)
	par.Range(clients, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			for i := 0; i < calls; i++ {
				nodes := []int{(c*calls + i) % n, (c*calls + 7*i + 1) % n}
				p, err := e.Predict(context.Background(), nodes)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				for j, v := range nodes {
					for k, got := range p.Logits[j] {
						if got != want.At(v, k) {
							t.Errorf("client %d node %d class %d: logit %v, offline %v", c, v, k, got, want.At(v, k))
							return
						}
					}
				}
			}
		}
	})
}

// TestEngineScoreError proves a model failure reaches every request in
// the batch rather than hanging or crashing the dispatcher.
func TestEngineScoreError(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	e.Swap(&errModel{}, SwapInfo{Source: "test"})
	if _, err := e.Predict(context.Background(), []int{1}); err == nil {
		t.Fatal("model error swallowed")
	}
	// The dispatcher survives: a healthy model serves afterwards.
	e.Swap(newFake("A", 0), SwapInfo{Source: "test"})
	if _, err := e.Predict(context.Background(), []int{1}); err != nil {
		t.Fatalf("engine wedged after score error: %v", err)
	}
	if st := e.Stats(); st.Errors != 1 {
		t.Fatalf("error counter = %d, want 1", st.Errors)
	}
}

type errModel struct{}

func (errModel) Name() string { return "err" }
func (errModel) Nodes() int   { return 10 }
func (errModel) Classes() int { return 2 }
func (errModel) Score([]int, *tensor.Matrix) error {
	return errors.New("boom")
}
