package bench

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"scalegnn/internal/metrics"
)

// loadConfig drives runLoad, E21's closed-loop HTTP load generator:
// Concurrency workers each issue one single-node /predict, wait for the
// reply, and immediately issue the next, for Duration.
type loadConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Nodes bounds the sampled node id space [0, Nodes).
	Nodes       int
	Concurrency int
	Duration    time.Duration
	// Seed feeds the per-worker node samplers.
	Seed uint64
}

// loadResult is one load-generation run. Latencies are exact (not
// bucketed), in milliseconds, over the answered requests.
type loadResult struct {
	Requests int64 // answered 200
	Errors   int64 // transport failures and non-200 answers
	QPS      float64
	P50Ms    float64
	P99Ms    float64
	MaxMs    float64
}

// runLoad hammers cfg.BaseURL/predict with uniformly random node ids and
// reports throughput and latency percentiles. A run in which no request
// was answered — the server down, or a wall of 503s — is an error, not a
// result.
func runLoad(cfg loadConfig) (*loadResult, error) {
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency * 2,
			MaxIdleConnsPerHost: cfg.Concurrency * 2,
		},
	}
	defer client.CloseIdleConnections()

	type workerOut struct {
		lats []float64 // milliseconds
		errs int64
	}
	outs := make([]workerOut, cfg.Concurrency)
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range outs {
		wg.Add(1)
		//lint:ignore naked-go closed-loop load worker; joined via WaitGroup below
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(w)))
			url := make([]byte, 0, 128)
			for time.Now().Before(deadline) {
				url = append(url[:0], cfg.BaseURL...)
				url = append(url, "/predict?nodes="...)
				url = strconv.AppendInt(url, int64(rng.IntN(cfg.Nodes)), 10)
				t0 := time.Now()
				resp, err := client.Get(string(url))
				if err != nil {
					outs[w].errs++
					continue
				}
				// Drain so the connection can be reused.
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					outs[w].errs++
					continue
				}
				outs[w].lats = append(outs[w].lats, float64(time.Since(t0).Nanoseconds())/1e6)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []float64
	var errs int64
	for _, o := range outs {
		lats = append(lats, o.lats...)
		errs += o.errs
	}
	if len(lats) == 0 {
		return nil, fmt.Errorf("bench: load run got no successful responses (%d errors)", errs)
	}
	q := metrics.Quantiles(lats, 0.50, 0.99, 1)
	return &loadResult{
		Requests: int64(len(lats)),
		Errors:   errs,
		QPS:      float64(len(lats)) / elapsed.Seconds(),
		P50Ms:    q[0],
		P99Ms:    q[1],
		MaxMs:    q[2],
	}, nil
}
