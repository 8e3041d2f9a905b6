package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"
)

// LoadConfig drives RunLoad, the closed-loop HTTP load generator behind
// the serving benchmark: Concurrency workers each issue one request,
// wait for the reply, and immediately issue the next, for Duration.
type LoadConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Nodes bounds the sampled node id space [0, Nodes).
	Nodes int
	// Batch is how many node ids each request carries; <= 0 means 1.
	Batch int
	// Concurrency is the closed-loop worker count; <= 0 means 4.
	Concurrency int
	// Duration is how long to generate load.
	Duration time.Duration
	// SLO is the p99 latency target the result is judged against.
	SLO time.Duration
	// Seed feeds the per-worker node samplers.
	Seed uint64
}

// LoadResult is one load-generation run. CacheHitRate describes the engine
// under test and is filled by the caller.
type LoadResult struct {
	Model        string
	CacheHitRate float64
	Requests     int64
	Errors       int64
	QPS          float64
	P50Ms        float64
	P99Ms        float64
	MaxMs        float64
	SLOMs        float64
	SLOMet       bool
}

// RunLoad hammers cfg.BaseURL/predict with uniformly random node ids and
// reports throughput and exact (not bucketed) latency percentiles.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("serve: loadgen needs a BaseURL")
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("serve: loadgen needs Nodes > 0")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("serve: loadgen needs Duration > 0")
	}
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = 4
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 1
	}
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        workers * 2,
			MaxIdleConnsPerHost: workers * 2,
		},
	}
	defer client.CloseIdleConnections()

	// Pre-flight: the server must be up and serving a model, so a result
	// never silently measures a wall of 503s.
	model, err := serverModel(client, cfg.BaseURL)
	if err != nil {
		return nil, err
	}

	type workerOut struct {
		lats []float64 // milliseconds
		errs int64
	}
	outs := make([]workerOut, workers)
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:ignore naked-go closed-loop load worker; joined via WaitGroup below
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(w)))
			url := make([]byte, 0, 128)
			for time.Now().Before(deadline) {
				url = url[:0]
				url = append(url, cfg.BaseURL...)
				url = append(url, "/predict?nodes="...)
				for i := 0; i < batch; i++ {
					if i > 0 {
						url = append(url, ',')
					}
					url = appendInt(url, rng.IntN(cfg.Nodes))
				}
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
		return nil, fmt.Errorf("serve: loadgen got no successful responses (%d errors)", errs)
	}
	sort.Float64s(lats)
	res := &LoadResult{
		Model:    model,
		Requests: int64(len(lats)),
		Errors:   errs,
		QPS:      float64(len(lats)) / elapsed.Seconds(),
		P50Ms:    quantileSorted(lats, 0.50),
		P99Ms:    quantileSorted(lats, 0.99),
		MaxMs:    lats[len(lats)-1],
		SLOMs:    float64(cfg.SLO.Nanoseconds()) / 1e6,
	}
	res.SLOMet = cfg.SLO <= 0 || res.P99Ms <= res.SLOMs
	return res, nil
}

// serverModel confirms /healthz answers and returns the served model name.
func serverModel(client *http.Client, base string) (string, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return "", fmt.Errorf("serve: loadgen health check: %w", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("serve: loadgen health check: status %d", resp.StatusCode)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", fmt.Errorf("serve: loadgen health check: %w", err)
	}
	return info.Model, nil
}

// appendInt is strconv.AppendInt without the int64 conversion noise at the
// call site.
func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// quantileSorted returns the exact q-quantile of an ascending-sorted
// sample (nearest-rank).
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*q+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
