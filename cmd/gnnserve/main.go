// Command gnnserve serves per-node predictions from a trained decoupled
// model (sgc | sign | appnp | gamlp | ld2) over HTTP. It rebuilds the
// dataset and the graph-side precompute from the same flags the model was
// trained with, loads the head weights from a checkpoint snapshot (the
// fingerprint guards against mismatched flags), and serves:
//
//	GET/POST /predict     — predictions (and logits) for node ids
//	GET      /healthz     — served model, generation, SLO burn status
//	GET      /stats       — QPS counters and latency quantiles
//	GET      /metrics     — Prometheus text exposition
//	POST     /admin/swap  — hot-swap to a new snapshot, zero downtime
//
// Usage:
//
//	gnntrain -model sgc -nodes 20000 -checkpoint-dir ckpts
//	gnnserve -model sgc -nodes 20000 -checkpoint-dir ckpts -addr :8080
//	curl 'localhost:8080/predict?nodes=17,42'
//	curl -X POST -d '{"source":"ckpts"}' localhost:8080/admin/swap
//
//	gnnserve -selftest   # train, snapshot, restore, verify parity, load-test in-process
//
// Requests are traced end-to-end when -trace-out is set: /predict ingests
// W3C traceparent headers, every request span links to the batch-forward
// span that scored it, and the JSONL timeline lands on disk at shutdown
// (SIGTERM included — the signal cancels the root context and the obs
// session is flushed before exit).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/models"
	"scalegnn/internal/obs"
	"scalegnn/internal/serve"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// logger is the process-wide structured logger, installed in main before
// any other code runs.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	var (
		model     = flag.String("model", "sgc", "decoupled model name: sgc | sign | appnp | gamlp | ld2")
		hops      = flag.Int("hops", 2, "propagation hops")
		nodes     = flag.Int("nodes", 5000, "synthetic node count")
		classes   = flag.Int("classes", 5, "class count")
		degree    = flag.Float64("deg", 10, "average degree")
		homophily = flag.Float64("homophily", 0.8, "edge homophily")
		noise     = flag.Float64("noise", 1.2, "feature noise std")
		dim       = flag.Int("dim", 32, "feature dimension")
		graphPath = flag.String("graph", "", "optional edge-list file (overrides synthetic graph)")
		labelPath = flag.String("labels", "", "optional label file (one class per line)")
		seed      = flag.Uint64("seed", 42, "random seed (must match training)")
		dtype     = flag.String("dtype", "float64", "numeric tier used in training: float64 | float32")

		lr          = flag.Float64("lr", 0.01, "learning rate used in training")
		weightDecay = flag.Float64("weight-decay", 5e-4, "L2 weight decay used in training")
		dropout     = flag.Float64("dropout", 0.5, "dropout used in training")
		hidden      = flag.Int("hidden", 64, "hidden width used in training")
		batch       = flag.Int("batch", 512, "mini-batch size used in training")

		ckptDir  = flag.String("checkpoint-dir", "", "serve the newest matching snapshot from this directory")
		snapshot = flag.String("snapshot", "", "serve this one snapshot file")

		window      = flag.Duration("window", 0, "fixed request-coalescing window; 0 (default) drains queued requests per batch without waiting, which E21 measures as the best closed-loop policy")
		maxBatch    = flag.Int("max-batch", 256, "max node rows per coalesced forward")
		cacheSize   = flag.Int("cache", 4096, "hot-node logit LRU size (0 disables)")
		metricsAddr = flag.String("metrics-addr", "", "serve expvar metrics, /metrics, and pprof on this address")
		traceOut    = flag.String("trace-out", "", "write the request/batch span timeline as JSONL here on exit")
		cpuProfile  = flag.String("pprof", "", "write a CPU profile of the run here")
		logJSON     = flag.Bool("log-json", false, "emit structured logs as JSON (default: human-readable text)")
		accessLog   = flag.Bool("access-log", false, "log one structured line per /predict request, correlated by trace_id")

		slo           = flag.Duration("slo", 25*time.Millisecond, "per-request latency SLO target; drives the /healthz burn-rate degradation and the selftest load report")
		sloObjective  = flag.Float64("slo-objective", 0.99, "fraction of requests that must meet -slo (error budget = 1 - objective)")
		sloWindow     = flag.Duration("slo-window", 60*time.Second, "rolling window the SLO burn rate is computed over")
		sloBurn       = flag.Float64("slo-burn-threshold", 1.0, "burn rate at or above which /healthz reports degraded")
		selftest      = flag.Bool("selftest", false, "train, snapshot, restore, verify parity, then load-test in-process")
		metricsOut    = flag.String("metrics-out", "", "selftest: scrape /metrics after the load run and write the exposition here")
		duration      = flag.Duration("duration", 2*time.Second, "selftest: load-generation duration")
		concurrency   = flag.Int("concurrency", 8, "selftest: closed-loop load workers")
		epochs        = flag.Int("epochs", 20, "selftest: training epochs")
		listenAddrStr = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	)
	flag.Parse()
	logger = obs.NewLogger(os.Stderr, *logJSON, nil)

	// The root context is signal-bound from the start so that shutdown
	// during warm-up (selftest probes included) cancels cleanly; the same
	// cancellation path unwinds main, which is what flushes the obs session
	// (trace JSONL + CPU profile) on SIGTERM.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sess, err := obs.StartSession(obs.Options{
		TraceOut: *traceOut, MetricsAddr: *metricsAddr, CPUProfile: *cpuProfile,
	})
	if err != nil {
		fatal("%v", err)
	}
	defer func() {
		if err := sess.Close(); err != nil {
			logger.Error("observability teardown", "err", err)
		}
	}()
	// The serving registry: the obs session's when any output is enabled
	// (its runtime sampler is already feeding it), otherwise a private one
	// with its own sampler so /metrics always carries runtime health.
	reg := sess.Registry
	if reg == nil {
		reg = obs.NewRegistry()
		stopSampler := obs.StartRuntimeSampler(reg, 10*time.Second)
		defer stopSampler()
	}
	tensor.EnablePoolMetrics(reg)
	if a := sess.Addr(); a != "" {
		logger.Info("debug listener up", "metrics", "http://"+a+"/metrics", "pprof", "http://"+a+"/debug/pprof/")
	}

	ds, err := dataset.Load(*graphPath, *labelPath, dataset.Config{
		Nodes: *nodes, Classes: *classes, AvgDegree: *degree, Homophily: *homophily,
		FeatureDim: *dim, NoiseStd: *noise, TrainFrac: 0.5, ValFrac: 0.2, Seed: *seed,
	})
	if err != nil {
		fatal("dataset: %v", err)
	}

	cfg := models.DefaultTrainConfig()
	cfg.LR = *lr
	cfg.WeightDecay = *weightDecay
	cfg.Dropout = *dropout
	cfg.Hidden = *hidden
	cfg.BatchSize = *batch
	cfg.Seed = *seed
	cfg.Epochs = *epochs
	cfg.DType = *dtype

	engCfg := serve.Config{
		Window: *window, MaxBatch: *maxBatch, CacheSize: *cacheSize, Registry: reg,
		SLO: serve.SLOConfig{
			Target: *slo, Objective: *sloObjective,
			Window: *sloWindow, BurnThreshold: *sloBurn,
		},
	}

	if *selftest {
		opts := selftestOpts{
			metricsOut: *metricsOut,
			duration:   *duration, concurrency: *concurrency, slo: *slo,
		}
		if err := runSelftest(ctx, ds, *model, *hops, cfg, engCfg, opts); err != nil {
			fatal("selftest: %v", err)
		}
		return
	}

	if (*ckptDir == "") == (*snapshot == "") {
		fatal("need exactly one of -checkpoint-dir or -snapshot")
	}
	source := *ckptDir
	if source == "" {
		source = *snapshot
	}
	loader := snapshotLoader(ds, *model, *hops, cfg)
	m, info, err := loader(source)
	if err != nil {
		fatal("%v", err)
	}

	eng := serve.NewEngine(engCfg)
	defer eng.Close()
	eng.Swap(m, info)
	srv := serve.NewServer(eng, loader)
	if *accessLog {
		srv.SetAccessLog(logger)
	}
	if err := srv.Start(*listenAddrStr); err != nil {
		fatal("%v", err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			logger.Error("server close", "err", err)
		}
	}()
	logger.Info("serving",
		"model", m.Name(),
		"fingerprint", fmt.Sprintf("%016x", info.Fingerprint),
		"nodes", m.Nodes(),
		"classes", m.Classes(),
		"addr", srv.Addr(),
		"slo_target", slo.String(),
	)

	<-ctx.Done()
	logger.Info("shutting down", "reason", "signal")
}

// servable is what serving needs from a model family: trainable (for
// -selftest), restorable from a snapshot, and batch-scorable.
type servable interface {
	models.Trainer
	models.NodeScorer
	models.Restorer
}

func makeModel(name string, hops int) (servable, error) {
	switch name {
	case "sgc":
		return models.NewSGC(hops)
	case "sign":
		return models.NewSIGN(hops)
	case "appnp":
		return models.NewAPPNP(10, 0.15)
	case "gamlp":
		return models.NewGAMLP(hops)
	case "ld2":
		return models.NewLD2(hops)
	default:
		return nil, fmt.Errorf("gnnserve: model %q is not a servable decoupled family", name)
	}
}

// snapshotLoader builds the serve.Loader used both at startup and by
// /admin/swap: every load constructs a fresh model instance, so a swap
// never mutates the one currently serving.
func snapshotLoader(ds *dataset.Dataset, name string, hops int, cfg models.TrainConfig) serve.Loader {
	return func(source string) (serve.Model, serve.SwapInfo, error) {
		m, err := makeModel(name, hops)
		if err != nil {
			return nil, serve.SwapInfo{}, err
		}
		// The fingerprint hashes the model's own Name() ("SGC-K2"), not the
		// CLI flag spelling ("sgc").
		snap, err := readSnapshot(source, m.Name(), ds, cfg)
		if err != nil {
			return nil, serve.SwapInfo{}, err
		}
		if err := m.Restore(ds, cfg, snap); err != nil {
			return nil, serve.SwapInfo{}, err
		}
		if err := warm(m); err != nil {
			return nil, serve.SwapInfo{}, err
		}
		return m, serve.SwapInfo{Fingerprint: snap.Fingerprint, Source: source}, nil
	}
}

// readSnapshot loads a snapshot from a file path or, for a directory, the
// newest snapshot matching the run fingerprint.
func readSnapshot(source, name string, ds *dataset.Dataset, cfg models.TrainConfig) (*ckpt.Snapshot, error) {
	fi, err := os.Stat(source)
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		mgr, err := ckpt.NewManager(source, 0)
		if err != nil {
			return nil, err
		}
		snap, path, err := mgr.Latest(models.RunFingerprint(name, ds, cfg))
		if err != nil {
			return nil, err
		}
		if snap == nil {
			return nil, fmt.Errorf("gnnserve: no snapshots in %s", source)
		}
		logger.Info("loading snapshot", "path", path)
		return snap, nil
	}
	data, err := os.ReadFile(source)
	if err != nil {
		return nil, err
	}
	return ckpt.Decode(data)
}

// warm forces any lazy per-model caches (APPNP's diffused logits, the
// GAMLP attention combine) to materialize before the first request hits.
func warm(m models.NodeScorer) error {
	out := tensor.New(1, m.Classes())
	return m.Score([]int{0}, out)
}

// selftestOpts bundles the selftest-only knobs.
type selftestOpts struct {
	metricsOut  string
	duration    time.Duration
	concurrency int
	slo         time.Duration
}

// runSelftest is the offline gate behind scripts/check.sh's serve smoke
// test: train → snapshot → restore → verify the served path is byte-equal
// to offline Predict → serve over HTTP → load-test → hot-swap once. It
// then exercises the telemetry surface:
// /metrics must parse as strict Prometheus text with serve.request_seconds
// buckets, an inbound traceparent must be honored end-to-end, the span
// timeline must carry trace ids and request↔batch links (when tracing is
// on), and /healthz must flip to degraded under injected latency. It fails
// on any correctness violation or request errors; missing the latency SLO
// in the load run is reported, not fatal.
func runSelftest(ctx context.Context, ds *dataset.Dataset, model string, hops int, cfg models.TrainConfig, engCfg serve.Config,
	opts selftestOpts) error {
	dir, err := os.MkdirTemp("", "gnnserve-selftest-*")
	if err != nil {
		return err
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			logger.Error("selftest cleanup", "err", err)
		}
	}()

	cfg.Checkpoint = train.CheckpointConfig{Dir: dir, Every: 1, KeepLast: 2}
	trained, err := makeModel(model, hops)
	if err != nil {
		return err
	}
	logger.Info("selftest: training", "model", trained.Name(), "nodes", ds.G.N)
	if _, err := trained.Fit(ds, cfg); err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	want, err := trained.Predict(ds)
	if err != nil {
		return err
	}

	loader := snapshotLoader(ds, model, hops, cfg)
	m, info, err := loader(dir)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}

	// Byte-equal parity: the restored, served model must score every node
	// to the same class as the offline Predict of the model just trained.
	got := make([]int, 0, ds.G.N)
	out := tensor.New(ds.G.N, ds.NumClasses)
	idx := make([]int, ds.G.N)
	for i := range idx {
		idx[i] = i
	}
	if err := m.Score(idx, out); err != nil {
		return err
	}
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		got = append(got, best)
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("parity: node %d served class %d, offline Predict %d", i, got[i], want[i])
		}
	}
	logger.Info("selftest: parity verified", "nodes", ds.G.N)

	eng := serve.NewEngine(engCfg)
	defer eng.Close()
	eng.Swap(m, info)
	srv := serve.NewServer(eng, loader)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() {
		if err := srv.Close(); err != nil {
			logger.Error("server close", "err", err)
		}
	}()
	base := "http://" + srv.Addr()

	res, err := serve.RunLoad(serve.LoadConfig{
		BaseURL:     base,
		Nodes:       ds.G.N,
		Concurrency: opts.concurrency,
		Duration:    opts.duration,
		SLO:         opts.slo,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	st := eng.Stats()
	if st.CacheHits+st.CacheMisses > 0 {
		res.CacheHitRate = float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	}
	if res.Errors > 0 {
		return fmt.Errorf("loadgen: %d request errors", res.Errors)
	}

	// Exercise the swap path end-to-end: reload the same snapshot; the
	// generation must advance and serving must continue.
	m2, info2, err := loader(dir)
	if err != nil {
		return fmt.Errorf("swap restore: %w", err)
	}
	if gen := eng.Swap(m2, info2); gen != 2 {
		return fmt.Errorf("swap generation = %d, want 2", gen)
	}
	probe, err := eng.Predict(ctx, []int{0})
	if err != nil || probe.Predictions[0] != want[0] {
		return fmt.Errorf("post-swap probe: pred=%v err=%v", probe, err)
	}
	logger.Info("selftest: hot swap verified", "generation", 2)

	if err := checkMetricsExposition(ctx, base, opts.metricsOut); err != nil {
		return err
	}
	if err := checkTraceparentEcho(ctx, base); err != nil {
		return err
	}
	if err := checkSpanLinks(); err != nil {
		return err
	}
	if err := checkSLODegradation(ctx, m2, info2); err != nil {
		return err
	}

	verdict := "met"
	if !res.SLOMet {
		verdict = "MISSED (informational)"
	}
	logger.Info("selftest: load run",
		"requests", res.Requests, "qps", fmt.Sprintf("%.0f", res.QPS),
		"p50_ms", fmt.Sprintf("%.2f", res.P50Ms), "p99_ms", fmt.Sprintf("%.2f", res.P99Ms),
		"slo_ms", fmt.Sprintf("%.0f", res.SLOMs), "slo", verdict,
		"cache_hit_rate", fmt.Sprintf("%.0f%%", res.CacheHitRate*100),
	)
	return nil
}

// checkMetricsExposition scrapes /metrics, validates it with the strict
// hand-rolled Prometheus parser, requires the serve.request_seconds
// cumulative buckets, and optionally writes the exposition to disk.
func checkMetricsExposition(ctx context.Context, base, metricsOut string) error {
	body, _, err := httpGet(ctx, base+"/metrics", "")
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	if err := obs.ValidateExposition(body); err != nil {
		return fmt.Errorf("metrics exposition: %w", err)
	}
	for _, needle := range []string{
		`serve_request_seconds_bucket{le="+Inf"}`,
		"serve_request_seconds_sum",
		"serve_request_seconds_count",
		"serve_requests_total",
	} {
		if !strings.Contains(string(body), needle) {
			return fmt.Errorf("metrics exposition missing %q", needle)
		}
	}
	if metricsOut != "" {
		if err := os.WriteFile(metricsOut, body, 0o644); err != nil {
			return fmt.Errorf("metrics out: %w", err)
		}
	}
	logger.Info("selftest: /metrics exposition valid", "bytes", len(body))
	return nil
}

// checkTraceparentEcho sends a /predict with a fixed inbound traceparent
// and requires the response header to continue the same trace (when
// tracing is enabled; with no tracer the header is absent by design).
func checkTraceparentEcho(ctx context.Context, base string) error {
	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	_, hdr, err := httpGet(ctx, base+"/predict?nodes=0", inbound)
	if err != nil {
		return fmt.Errorf("traceparent probe: %w", err)
	}
	echo := hdr.Get("Traceparent")
	if !obs.Enabled() {
		if echo != "" {
			return fmt.Errorf("traceparent echoed %q with tracing off", echo)
		}
		return nil
	}
	tc, ok := obs.ParseTraceparent(echo)
	if !ok {
		return fmt.Errorf("response traceparent %q does not parse", echo)
	}
	want, _ := obs.ParseTraceparent(inbound)
	if tc.Trace != want.Trace {
		return fmt.Errorf("response trace id %s, want %s (inbound not honored)", tc.Trace, want.Trace)
	}
	logger.Info("selftest: inbound traceparent honored", "trace_id", tc.Trace.String())
	return nil
}

// checkSpanLinks verifies the live tracer's timeline: every serve.request
// span carries a trace id, at least one links into a serve.batch_forward
// span, and every link from a request span targets a batch span. No-op
// when tracing is off.
func checkSpanLinks() error {
	t := obs.ActiveTracer()
	if t == nil {
		return nil
	}
	snap := t.Snapshot()
	batchIDs := make(map[uint64]bool)
	for _, r := range snap {
		if r.Name == "serve.batch_forward" {
			batchIDs[r.ID] = true
		}
	}
	var reqSpans, linked int
	for _, r := range snap {
		if r.Name != "serve.request" {
			continue
		}
		reqSpans++
		if r.Trace == "" {
			return fmt.Errorf("trace check: request span %d has no trace_id", r.ID)
		}
		for _, l := range r.Links {
			if !batchIDs[l] {
				return fmt.Errorf("trace check: request span %d links %d, which is not a batch-forward span", r.ID, l)
			}
			linked++
		}
	}
	if reqSpans == 0 {
		return fmt.Errorf("trace check: no serve.request spans recorded")
	}
	if linked == 0 {
		return fmt.Errorf("trace check: no request span links a batch-forward span")
	}
	logger.Info("selftest: span links verified", "request_spans", reqSpans, "batch_links", linked)
	return nil
}

// checkSLODegradation stands up a second engine around the same model with
// artificial scoring latency and an aggressive SLO target, then requires
// /healthz over real HTTP to report degraded once the burn rate crosses
// threshold.
func checkSLODegradation(ctx context.Context, m serve.Model, info serve.SwapInfo) error {
	slow := slowModel{Model: m, delay: 2 * time.Millisecond}
	eng := serve.NewEngine(serve.Config{
		CacheSize: 0, // every request must reach the (slow) scorer
		SLO: serve.SLOConfig{
			Target: 100 * time.Microsecond, Objective: 0.99,
			Window: 10 * time.Second, BurnThreshold: 1.0,
		},
	})
	defer eng.Close()
	eng.Swap(slow, info)
	srv := serve.NewServer(eng, nil)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() {
		if err := srv.Close(); err != nil {
			logger.Error("slo drill server close", "err", err)
		}
	}()
	base := "http://" + srv.Addr()
	for i := 0; i < 10; i++ {
		if _, _, err := httpGet(ctx, fmt.Sprintf("%s/predict?nodes=%d", base, i), ""); err != nil {
			return fmt.Errorf("slo drill request: %w", err)
		}
	}
	body, _, err := httpGet(ctx, base+"/healthz", "")
	if err != nil {
		return fmt.Errorf("slo drill healthz: %w", err)
	}
	var health struct {
		Status string `json:"status"`
		SLO    *serve.SLOStatus
	}
	if err := json.Unmarshal(body, &health); err != nil {
		return fmt.Errorf("slo drill healthz decode: %w", err)
	}
	if health.Status != "degraded" {
		return fmt.Errorf("slo drill: healthz status %q, want degraded (%s)", health.Status, body)
	}
	logger.Info("selftest: healthz degraded under injected latency", "status", health.Status)
	return nil
}

// slowModel injects fixed latency ahead of every Score — the selftest's
// SLO-degradation stand-in for an overloaded model.
type slowModel struct {
	serve.Model
	delay time.Duration
}

// Score delays, then delegates to the wrapped model.
// lint:confine score-path
func (s slowModel) Score(idx []int, out *tensor.Matrix) error {
	time.Sleep(s.delay)
	return s.Model.Score(idx, out)
}

// httpGet issues one GET with the request bound to ctx, optionally setting
// an inbound traceparent, and returns the body and response headers.
func httpGet(ctx context.Context, url, traceparent string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: status %d (%s)", url, resp.StatusCode, body)
	}
	return body, resp.Header, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gnnserve: "+format+"\n", args...)
	os.Exit(1)
}
