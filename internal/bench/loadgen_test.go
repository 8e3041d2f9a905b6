package bench

import (
	"testing"
	"time"

	"scalegnn/internal/serve"
	"scalegnn/internal/tensor"
)

// constModel answers every node with whatever the pooled buffer holds:
// the load generator measures transport, not predictions.
type constModel struct{}

func (constModel) Name() string                              { return "const" }
func (constModel) Nodes() int                                { return 1000 }
func (constModel) Classes() int                              { return 2 }
func (constModel) Score(idx []int, out *tensor.Matrix) error { return nil }

// TestLoadGen runs the closed-loop generator against a live server: a run
// with nothing answered is an error (no model yet, so every request is a
// 503; or no server at all), and a served run reports plausible numbers.
func TestLoadGen(t *testing.T) {
	eng := serve.NewEngine(serve.Config{CacheSize: 256})
	defer eng.Close()
	srv := serve.NewServer(eng, nil)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}()
	cfg := loadConfig{BaseURL: "http://" + srv.Addr(), Nodes: 1000, Concurrency: 4, Duration: 50 * time.Millisecond, Seed: 1}

	if res, err := runLoad(cfg); err == nil {
		t.Fatalf("a wall of 503s produced a result: %+v", res)
	}

	eng.Swap(constModel{}, serve.SwapInfo{Source: "test"})
	cfg.Duration = 150 * time.Millisecond
	res, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.QPS <= 0 || res.P50Ms <= 0 || res.P99Ms < res.P50Ms || res.MaxMs < res.P99Ms {
		t.Fatalf("implausible result = %+v", res)
	}

	if _, err := runLoad(loadConfig{BaseURL: "http://127.0.0.1:1", Nodes: 10, Concurrency: 1, Duration: time.Millisecond}); err == nil {
		t.Fatal("unreachable server produced a result")
	}
}
