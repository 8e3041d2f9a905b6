// Command gnntrain trains any registered model on a synthetic dataset (or
// a graph loaded from an edge-list file with synthetic features) and prints
// the training report.
//
// Usage:
//
//	gnntrain -model sgc -nodes 20000 -homophily 0.8
//	gnntrain -model ld2 -nodes 5000 -homophily 0.1 -epochs 150
//	gnntrain -model gcn -graph graph.el -labels graph.el.labels
//	gnntrain -model gcn -checkpoint-dir ckpts          # durable snapshots
//	gnntrain -model gcn -checkpoint-dir ckpts -resume  # continue after a crash
//
// Models: gcn | sage | clustergcn | sgc | appnp | sign | gamlp | ld2 | implicit | transformer
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/distnet"
	"scalegnn/internal/models"
	"scalegnn/internal/obs"
	"scalegnn/internal/par"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

func main() {
	var (
		model       = flag.String("model", "sgc", "model name")
		nodes       = flag.Int("nodes", 5000, "synthetic node count")
		classes     = flag.Int("classes", 5, "class count")
		degree      = flag.Float64("deg", 10, "average degree")
		homophily   = flag.Float64("homophily", 0.8, "edge homophily")
		noise       = flag.Float64("noise", 1.2, "feature noise std")
		dim         = flag.Int("dim", 32, "feature dimension")
		graphPath   = flag.String("graph", "", "optional edge-list file (overrides synthetic graph)")
		labelPath   = flag.String("labels", "", "optional label file (one class per line)")
		epochs      = flag.Int("epochs", 100, "training epochs")
		lr          = flag.Float64("lr", 0.01, "learning rate")
		weightDecay = flag.Float64("weight-decay", 5e-4, "L2 weight decay")
		dropout     = flag.Float64("dropout", 0.5, "dropout probability")
		hidden      = flag.Int("hidden", 64, "hidden width")
		batch       = flag.Int("batch", 512, "mini-batch size")
		hops        = flag.Int("hops", 2, "propagation hops / layers")
		patience    = flag.Int("patience", 30, "early-stopping patience in epochs (0 disables)")
		restoreBest = flag.Bool("restore-best", false, "restore best-validation weights after training")
		verbose     = flag.Bool("verbose", false, "print per-epoch validation accuracy")
		seed        = flag.Uint64("seed", 42, "random seed")
		dtype       = flag.String("dtype", "float64", "numeric tier: float64 (reference) or float32 (raw speed)")
		ckptDir     = flag.String("checkpoint-dir", "", "write durable training snapshots to this directory")
		ckptEvery   = flag.Int("checkpoint-every", 1, "snapshot every N epochs (final epoch and cancellation always snapshot)")
		ckptKeep    = flag.Int("checkpoint-keep", 2, "retain the newest N snapshots")
		resume      = flag.Bool("resume", false, "resume from the newest usable snapshot in -checkpoint-dir")
		traceOut    = flag.String("trace-out", "", "write the span timeline to this file as JSONL")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus) and pprof on this address (e.g. localhost:6060)")
		pprofOut    = flag.String("pprof", "", "write a CPU profile of the run to this file")
		logJSON     = flag.Bool("log-json", false, "emit structured logs as JSON (default: human-readable text)")
	)
	flag.Parse()
	logger = obs.NewLogger(os.Stderr, *logJSON, nil)

	sess, err := obs.StartSession(obs.Options{
		TraceOut: *traceOut, MetricsAddr: *metricsAddr, CPUProfile: *pprofOut,
	})
	if err != nil {
		fatal("%v", err)
	}
	defer func() {
		if err := sess.Close(); err != nil {
			logger.Error("observability teardown", "err", err)
		}
	}()
	if sess.Registry != nil {
		tensor.EnablePoolMetrics(sess.Registry)
		par.EnableMetrics(sess.Registry)
		train.EnableMetrics(sess.Registry)
		ckpt.EnableMetrics(sess.Registry)
	}
	if addr := sess.Addr(); addr != "" {
		logger.Info("debug listener up", "metrics", "http://"+addr+"/metrics", "pprof", "http://"+addr+"/debug/pprof/")
	}

	ds, err := dataset.Load(*graphPath, *labelPath, dataset.Config{
		Nodes: *nodes, Classes: *classes, AvgDegree: *degree, Homophily: *homophily,
		FeatureDim: *dim, NoiseStd: *noise, TrainFrac: 0.5, ValFrac: 0.2, Seed: *seed,
	})
	if err != nil {
		fatal("dataset: %v", err)
	}
	logger.Info("dataset",
		"n", ds.G.N, "arcs", ds.G.NumEdges(), "classes", ds.NumClasses,
		"homophily", fmt.Sprintf("%.3f", dataset.EdgeHomophily(ds.G, ds.Labels)))

	m, err := makeModel(*model, *hops)
	if err != nil {
		fatal("%v", err)
	}
	cfg := models.DefaultTrainConfig()
	cfg.Epochs = *epochs
	cfg.LR = *lr
	cfg.WeightDecay = *weightDecay
	cfg.Dropout = *dropout
	cfg.Hidden = *hidden
	cfg.BatchSize = *batch
	cfg.Seed = *seed
	cfg.Patience = *patience
	cfg.RestoreBest = *restoreBest
	cfg.DType = *dtype
	if *resume && *ckptDir == "" {
		fatal("-resume needs -checkpoint-dir")
	}
	if *ckptDir != "" {
		cfg.Checkpoint = train.CheckpointConfig{
			Dir: *ckptDir, Every: *ckptEvery, KeepLast: *ckptKeep, Resume: *resume,
		}
	}

	// Ctrl-C cancels between batches: the engine returns the partial report
	// instead of killing the run mid-step.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.Ctx = ctx
	if sess.Registry != nil {
		cfg.Hooks = append(cfg.Hooks, obs.NewTrainHook(sess.Registry))
	}
	if *verbose {
		cfg.Hooks = append(cfg.Hooks, epochLogger{})
	}

	// -shard turns this process into one member of a distnet cluster; see
	// dist.go and DESIGN.md "Distributed training".
	var cluster *distnet.Cluster
	if *distFlags.shard != "" {
		if sess.Registry != nil {
			distnet.EnableMetrics(sess.Registry)
		}
		cluster, err = setupDist(ctx, ds, &cfg, *model, *hops, *ckptEvery)
		if err != nil {
			fatal("%v", err)
		}
		defer func() {
			if err := cluster.Close(); err != nil {
				logger.Error("cluster teardown", "err", err)
			}
		}()
	}

	rep, err := fitModel(m, ds, cfg)
	if err != nil {
		fatal("fit: %v", err)
	}
	// The report stays on stdout as the run's machine-consumable result
	// (the crash-recovery and distributed smoke gates grep it); everything
	// else is structured logging on stderr.
	fmt.Println(rep)
	if *distFlags.printFP {
		pred, err := predictModel(m, ds)
		if err != nil {
			fatal("predict: %v", err)
		}
		fmt.Printf("fingerprint=%016x\n", models.PredictionFingerprint(pred))
	}
	if cluster != nil {
		s := cluster.Stats()
		fmt.Printf("dist rounds=%d stale_hits=%d reconnects=%d replays=%d frames_corrupt=%d\n",
			s.Rounds, s.StaleHits, s.Reconnects, s.Replays, s.FramesCorrupt)
	}
}

// logger is the process-wide structured logger, installed in main before
// any other code runs.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// epochLogger is a train.Hook that logs each epoch's validation accuracy,
// correlated with the run's span timeline by trace_id when tracing is on.
type epochLogger struct{}

func (epochLogger) OnBatch(train.BatchEnd) {}

func (epochLogger) OnEpoch(e train.EpochEnd) {
	logger.Info("epoch",
		slog.Int("epoch", e.Epoch),
		slog.Float64("val", e.ValAcc),
		slog.Float64("best", e.Best),
		slog.Bool("improved", e.Improved),
		slog.Duration("elapsed", e.Elapsed.Round(1e6)),
		obs.TraceAttr(obs.TraceContext{Trace: e.Trace}),
	)
}

func makeModel(name string, hops int) (models.Trainer, error) {
	switch name {
	case "gcn":
		return models.NewGCN(hops)
	case "sage":
		return models.NewGraphSAGE(hops, 5)
	case "clustergcn":
		return models.NewClusterGCN(hops, 16)
	case "sgc":
		return models.NewSGC(hops)
	case "appnp":
		return models.NewAPPNP(10, 0.15)
	case "sign":
		return models.NewSIGN(hops)
	case "gamlp":
		return models.NewGAMLP(hops)
	case "ld2":
		return models.NewLD2(hops)
	case "implicit":
		return models.NewImplicitNet(0.8, nil)
	case "transformer":
		return models.NewGraphTransformer(6)
	default:
		return nil, fmt.Errorf("gnntrain: unknown model %q", name)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gnntrain: "+format+"\n", args...)
	os.Exit(1)
}
