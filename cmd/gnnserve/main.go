// Command gnnserve serves per-node predictions from a trained decoupled
// model (sgc | sign | appnp | gamlp | ld2) over HTTP. A snapshot names the
// run that wrote it, so the snapshot alone is the input: gnnserve rebuilds
// the dataset, the model and its config from the snapshot's run spec,
// reruns the graph-side precompute, loads the head weights (the run
// fingerprint, which hashes the dataset's content, refuses a dataset that
// changed since training), and serves:
//
//	GET/POST /predict     — predictions (and logits) for node ids
//	GET      /healthz     — served model, generation, SLO burn status
//	GET      /metrics     — Prometheus text exposition
//	POST     /admin/swap  — hot-swap to a new snapshot, zero downtime
//
// Usage:
//
//	gnntrain -model sgc -nodes 20000 -checkpoint-dir ckpts
//	gnnserve -checkpoint-dir ckpts -addr :8080
//	curl 'localhost:8080/predict?nodes=17,42'
//	curl -X POST -d '{"source":"ckpts"}' localhost:8080/admin/swap
//
// Requests are traced end-to-end when -trace-out is set: /predict ingests
// W3C traceparent headers, every request span links to the batch-forward
// span that scored it, and the JSONL timeline lands on disk at shutdown
// (SIGTERM included — the signal cancels the root context and the obs
// session is flushed before exit).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/models"
	"scalegnn/internal/obs"
	"scalegnn/internal/serve"
	"scalegnn/internal/tensor"
)

// logger is the process-wide structured logger, installed in main before
// any other code runs.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	var (
		ckptDir  = flag.String("checkpoint-dir", "", "serve the newest snapshot in this directory")
		snapshot = flag.String("snapshot", "", "serve this one snapshot file")

		window      = flag.Duration("window", 0, "fixed request-coalescing window; 0 (default) drains queued requests per batch without waiting, which E21 measures as the best closed-loop policy")
		maxBatch    = flag.Int("max-batch", 256, "max node rows per coalesced forward")
		cacheSize   = flag.Int("cache", 4096, "hot-node logit LRU size (0 disables)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus) and pprof on this address")
		traceOut    = flag.String("trace-out", "", "write the request/batch span timeline as JSONL here on exit")
		cpuProfile  = flag.String("pprof", "", "write a CPU profile of the run here")
		logJSON     = flag.Bool("log-json", false, "emit structured logs as JSON (default: human-readable text)")
		accessLog   = flag.Bool("access-log", false, "log one structured line per /predict request, correlated by trace_id")

		slo           = flag.Duration("slo", 25*time.Millisecond, "per-request latency SLO target; drives the /healthz burn-rate degradation")
		sloObjective  = flag.Float64("slo-objective", 0.99, "fraction of requests that must meet -slo (error budget = 1 - objective)")
		sloWindow     = flag.Duration("slo-window", 60*time.Second, "rolling window the SLO burn rate is computed over")
		sloBurn       = flag.Float64("slo-burn-threshold", 1.0, "burn rate at or above which /healthz reports degraded")
		listenAddrStr = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	)
	flag.Parse()
	logger = obs.NewLogger(os.Stderr, *logJSON, nil)

	// The root context is signal-bound from the start so that shutdown
	// during warm-up cancels cleanly; the same cancellation path unwinds
	// main, which is what flushes the obs session (trace JSONL + CPU
	// profile) on SIGTERM.
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

	if (*ckptDir == "") == (*snapshot == "") {
		fatal("need exactly one of -checkpoint-dir or -snapshot")
	}
	source := *ckptDir
	if source == "" {
		source = *snapshot
	}
	loader, err := newLoader(source)
	if err != nil {
		fatal("%v", err)
	}
	m, info, err := loader(source)
	if err != nil {
		fatal("%v", err)
	}

	eng := serve.NewEngine(serve.Config{
		Window: *window, MaxBatch: *maxBatch, CacheSize: *cacheSize, Registry: reg,
		SLO: serve.SLOConfig{
			Target: *slo, Objective: *sloObjective,
			Window: *sloWindow, BurnThreshold: *sloBurn,
		},
	})
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

// servable is what serving needs from a model family: restorable from a
// snapshot, and batch-scorable.
type servable interface {
	models.NodeScorer
	models.Restorer
}

// newLoader rebuilds the dataset source's run spec names — the one dataset
// this server serves — and returns the loader startup and /admin/swap use.
// Each load builds a fresh model of the family and config its snapshot's
// spec names; Restore's run fingerprint hashes the dataset's content, so a
// snapshot trained on any other dataset fails with ckpt.ErrFingerprint.
func newLoader(source string) (serve.Loader, error) {
	_, spec, err := readSnapshot(source)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Load(spec.Graph, spec.Labels, spec.Data)
	if err != nil {
		return nil, fmt.Errorf("gnnserve: dataset: %w", err)
	}
	return func(source string) (serve.Model, serve.SwapInfo, error) {
		snap, spec, err := readSnapshot(source)
		if err != nil {
			return nil, serve.SwapInfo{}, err
		}
		t, err := models.New(spec.Family, spec.Hops)
		if err != nil {
			return nil, serve.SwapInfo{}, err
		}
		m, ok := t.(servable)
		if !ok {
			return nil, serve.SwapInfo{}, fmt.Errorf("gnnserve: model %q is not a servable decoupled family", spec.Family)
		}
		if err := m.Restore(ds, spec.Train, snap); err != nil {
			return nil, serve.SwapInfo{}, err
		}
		if err := warm(m); err != nil {
			return nil, serve.SwapInfo{}, err
		}
		return m, serve.SwapInfo{Fingerprint: snap.Fingerprint, Source: source}, nil
	}, nil
}

// readSnapshot loads a snapshot from a file path or, for a directory, the
// newest one that decodes, and decodes its run spec. A directory holding
// no snapshot is as missing as a path that does not exist: both wrap
// os.ErrNotExist, which /admin/swap answers with 404.
func readSnapshot(source string) (*ckpt.Snapshot, models.RunSpec, error) {
	fi, err := os.Stat(source)
	if err != nil {
		return nil, models.RunSpec{}, err
	}
	var snap *ckpt.Snapshot
	if fi.IsDir() {
		mgr, err := ckpt.NewManager(source, 0)
		if err != nil {
			return nil, models.RunSpec{}, err
		}
		var path string
		if snap, path, err = mgr.Newest(); err != nil {
			return nil, models.RunSpec{}, err
		}
		if snap == nil {
			return nil, models.RunSpec{}, fmt.Errorf("gnnserve: no snapshots in %s: %w", source, os.ErrNotExist)
		}
		logger.Info("loading snapshot", "path", path)
	} else {
		data, err := os.ReadFile(source)
		if err != nil {
			return nil, models.RunSpec{}, err
		}
		if snap, err = ckpt.Decode(data); err != nil {
			return nil, models.RunSpec{}, err
		}
	}
	spec, err := models.DecodeRunSpec(snap.Run)
	return snap, spec, err
}

// warm forces any lazy per-model caches (APPNP's diffused logits, the
// GAMLP attention combine) to materialize before the first request hits.
func warm(m models.NodeScorer) error {
	out := tensor.New(1, m.Classes())
	return m.Score([]int{0}, out)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gnnserve: "+format+"\n", args...)
	os.Exit(1)
}
