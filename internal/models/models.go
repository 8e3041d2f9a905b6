// Package models implements the scalable GNN model families surveyed in
// tutorial §3.1.2 and the technique-specific variants of §3.2–§3.3, all on
// top of the library's substrates:
//
//   - GCN: full-batch iterative message passing (the scalability baseline).
//   - GraphSAGE: node-level sampled mini-batch training.
//   - ClusterGCN: partition-based subgraph mini-batch training.
//   - SGC: linear decoupled propagation (precompute Â^K X, train a linear
//     head).
//   - APPNP: predict-then-propagate with truncated personalized PageRank.
//   - SIGN: multi-hop decoupled embeddings with an MLP head.
//   - GAMLP: SIGN embeddings with learnable hop attention.
//   - LD2: multi-filter (identity/low-pass/high-pass) spectral embeddings
//     for heterophilous graphs, mini-batch trainable.
//   - ImplicitNet: EIGNN-style equilibrium model with exact implicit
//     differentiation.
//   - GraphTransformer: DHIL-GT-style attention with a hub-label
//     shortest-path-distance bias.
//
// All ten fit through one seam, atTier, and share TrainConfig/Report so the
// benchmark harness can compare accuracy, epoch time, propagation/
// precompute time, and peak resident floats (the GPU-memory proxy) across
// families.
package models

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/metrics"
	"scalegnn/internal/nn"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// Element-type tiers selectable via TrainConfig.DType.
const (
	// DTypeFloat64 is the bitwise-reproducible reference tier (the default).
	DTypeFloat64 = "float64"
	// DTypeFloat32 is the raw-speed tier: half the memory traffic through
	// every dense kernel and SpMM, same RNG stream, same accuracy to within
	// rounding. GCN, ClusterGCN, and the decoupled families (SGC, SIGN, LD2,
	// APPNP, GAMLP) support it; the other families reject it. A model holds
	// trained state at exactly one tier — the one its last successful Fit or
	// Restore ran at.
	DTypeFloat32 = "float32"
)

// TrainConfig holds the optimizer and schedule settings shared by all
// models.
type TrainConfig struct {
	Epochs      int
	LR          float64
	WeightDecay float64
	Hidden      int
	Dropout     float64
	BatchSize   int // mini-batch models only; <= 0 means full batch
	Seed        uint64
	// DType selects the numeric tier: "" or "float64" for the reference
	// path, "float32" for the raw-speed tier. Models without a float32 path
	// (GraphSAGE, ImplicitNet, GraphTransformer) reject float32.
	DType string
	// Patience stops training after this many epochs without val-accuracy
	// improvement; 0 disables early stopping.
	Patience int
	// RestoreBest restores the best-validation weights when training ends
	// instead of keeping the final ones. Off by default: the legacy loops
	// kept final weights, and fingerprint comparisons depend on that.
	RestoreBest bool
	// Ctx cancels training between batches (deadline or cancellation); nil
	// means never.
	Ctx context.Context `json:"-"`
	// Hooks observe the engine's per-batch/per-epoch progress.
	Hooks []train.Hook `json:"-"`
	// Checkpoint enables durable snapshot/resume. Callers set Dir, Every,
	// Resume, KeepLast and Run; the model fills Fingerprint itself
	// (the fingerprint hashes model name + dataset content + config, so
	// resuming against a different run is rejected). Epochs and Patience
	// are deliberately not fingerprinted: extending a run is the point.
	Checkpoint train.CheckpointConfig `json:"-"`
}

// DefaultTrainConfig returns the settings used across the benchmarks.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs: 100, LR: 0.01, WeightDecay: 5e-4, Hidden: 64,
		Dropout: 0.5, BatchSize: 512, Seed: 1, Patience: 30,
	}
}

func (c TrainConfig) validate() error {
	if c.Epochs < 1 {
		return fmt.Errorf("models: epochs %d < 1", c.Epochs)
	}
	if !(c.LR > 0) {
		return fmt.Errorf("models: learning rate %v is not positive", c.LR)
	}
	if !(c.Dropout >= 0 && c.Dropout < 1) {
		return fmt.Errorf("models: dropout %v outside [0, 1)", c.Dropout)
	}
	if c.Hidden < 1 {
		return fmt.Errorf("models: hidden width %d < 1", c.Hidden)
	}
	switch c.DType {
	case "", DTypeFloat64, DTypeFloat32:
	default:
		return fmt.Errorf("models: unknown dtype %q (want %q or %q)", c.DType, DTypeFloat64, DTypeFloat32)
	}
	return nil
}

// dtype returns the normalized numeric tier ("" means float64).
func (c TrainConfig) dtype() string {
	if c.DType == "" {
		return DTypeFloat64
	}
	return c.DType
}

// namer is the part of Trainer the shared helpers need: the family name,
// for error messages and run fingerprints.
type namer interface{ Name() string }

// tierFunc is one numeric tier's instantiation of a family's generic build
// function: it reruns the graph-side precompute, constructs the network,
// and then either trains it (snap == nil, filling rep) or loads its weights
// from snap. It returns the family's trained state and leaves m untouched.
type tierFunc[M, S any] func(m M, ds *dataset.Dataset, cfg TrainConfig, snap *ckpt.Snapshot, rep *Report) (S, error)

// atTier is every family's Fit (snap == nil) and Restore, and the one place
// the package reads a numeric tier out of a config: it validates cfg,
// checks a snapshot against the run fingerprint, runs the build function
// of the tier cfg selects — f32 is nil for the families without a float32
// tier, which reject it — and installs the resulting state in *dst only on
// success: a cancelled or failed run leaves the model answering from
// whatever it held before.
func atTier[M namer, S any](m M, dst *S, ds *dataset.Dataset, cfg TrainConfig, snap *ckpt.Snapshot, f64, f32 tierFunc[M, S]) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if snap != nil {
		if err := checkSnapshotFingerprint(m.Name(), ds, cfg, snap); err != nil {
			return nil, err
		}
	}
	build := f64
	if cfg.dtype() == DTypeFloat32 {
		if f32 == nil {
			return nil, fmt.Errorf("models: %s has no float32 tier (iterative sampling/equilibrium/attention models stay float64); drop DType or use float64", m.Name())
		}
		build = f32
	}
	rep := &Report{Model: m.Name()}
	st, err := build(m, ds, cfg, snap, rep)
	if err != nil {
		return nil, err
	}
	*dst = st
	return rep, nil
}

// Report summarizes one training run: the model's accuracies and one-time
// graph work beside the engine's accounting (epochs run, wall-clock, peak
// resident floats, best validation, stop reason), which it embeds.
type Report struct {
	train.Report
	Model      string
	TrainAcc   float64
	ValAcc     float64
	TestAcc    float64
	TestF1     float64
	Precompute time.Duration // one-time graph work (decoupled models)
}

func (r Report) String() string {
	return fmt.Sprintf("%-12s test=%.4f val=%.4f f1=%.4f epochs=%d pre=%v epoch=%v peakMFloats=%.2f",
		r.Model, r.TestAcc, r.ValAcc, r.TestF1, r.Epochs,
		r.Precompute.Round(time.Millisecond), r.EpochTime.Round(time.Microsecond),
		float64(r.PeakFloats)/1e6)
}

// Trainer is the interface every model in this package satisfies; the core
// pipeline and the benchmark harness drive models through it.
type Trainer interface {
	// Name identifies the model family.
	Name() string
	// Fit trains on the dataset and returns the filled report.
	Fit(ds *dataset.Dataset, cfg TrainConfig) (*Report, error)
	// Predict returns class predictions for every node; valid after Fit.
	Predict(ds *dataset.Dataset) ([]int, error)
}

// maskedLoss computes softmax cross-entropy on the selected rows of the
// full logits matrix and scatters the gradient back to full shape. The
// returned gradient is drawn from the shared tensor workspace: callers
// release it with tensor.PutBufOf once the backward pass has consumed it.
func maskedLoss[T tensor.Elem](logits *tensor.Mat[T], labels []int, idx []int) (float64, *tensor.Mat[T]) {
	sel := tensor.GetBufOf[T](len(idx), logits.Cols)
	logits.SelectRowsInto(idx, sel)
	gSel := tensor.GetBufOf[T](len(idx), logits.Cols)
	loss := nn.SoftmaxCrossEntropyInto(sel, dataset.LabelsAt(labels, idx), gSel)
	tensor.PutBufOf(sel)
	full := tensor.GetZeroBufOf[T](logits.Rows, logits.Cols)
	full.ScatterAddRows(idx, gSel)
	tensor.PutBufOf(gSel)
	return loss, full
}

// accuracyAt computes accuracy of full-graph logits on an index set.
func accuracyAt[T tensor.Elem](logits *tensor.Mat[T], labels []int, idx []int) float64 {
	sel := tensor.GetBufOf[T](len(idx), logits.Cols)
	logits.SelectRowsInto(idx, sel)
	pred := nn.Argmax(sel)
	tensor.PutBufOf(sel)
	return metrics.Accuracy(pred, dataset.LabelsAt(labels, idx))
}

// newRunRNG returns the run's serializable RNG source alongside its
// rand.Rand view. The view feeds initialisers and samplers (same stream as
// tensor.NewRand(seed)); the concrete PCG is what the engine shuffles
// through, what dropout layers draw their masks from (so they can fill
// them on every core) and what a checkpoint serializes — restoring it
// restores all views at once. Families whose only stochastic layer is the
// head (newHead) take tensor.NewPCG(seed) alone.
func newRunRNG(seed uint64) (*rand.PCG, *rand.Rand) {
	pcg := tensor.NewPCG(seed)
	return pcg, rand.New(pcg)
}

// RunFingerprint hashes the run identity a snapshot must match to be
// resumable: the model name, the dataset's content (graph, features,
// labels, splits — not just their sizes), and every config field that
// shapes weights or the training trajectory. Epochs and Patience are
// excluded so a run can be extended or re-stopped. The dtype is folded in
// only for the float32 tier. ckpt.Manager.Latest takes it to pick the
// right snapshot before a model instance exists.
func RunFingerprint(model string, ds *dataset.Dataset, cfg TrainConfig) uint64 {
	f := ckpt.NewFingerprint().
		String(model).
		U64(ds.ContentKey()).U64(uint64(ds.NumClasses)).
		U64(math.Float64bits(cfg.LR)).U64(math.Float64bits(cfg.WeightDecay)).
		U64(math.Float64bits(cfg.Dropout)).
		U64(uint64(cfg.Hidden)).U64(uint64(int64(cfg.BatchSize))).
		U64(cfg.Seed)
	if cfg.dtype() == DTypeFloat32 {
		f = f.String(DTypeFloat32)
	}
	return f.Sum()
}

// runLoop adapts the model-level TrainConfig to the shared training engine
// and stores the engine's accounting in the model report. On cancellation
// the partial engine accounting is still recorded before the error
// propagates. pcg is the run's RNG source (newRunRNG); when cfg.Checkpoint
// is enabled, the engine-level config is completed here with the run
// fingerprint.
func runLoop[T tensor.Elem](model string, ds *dataset.Dataset, cfg TrainConfig, pcg *rand.PCG, rep *Report, spec train.SpecOf[T]) error {
	ck := cfg.Checkpoint
	if ck.Dir != "" {
		ck.Fingerprint = RunFingerprint(model, ds, cfg)
	}
	tr, err := train.Run(train.Config{
		Epochs: cfg.Epochs, Patience: cfg.Patience, RestoreBest: cfg.RestoreBest,
		RNG: pcg, Ctx: cfg.Ctx, Hooks: cfg.Hooks, Checkpoint: ck,
	}, spec)
	if tr != nil {
		rep.Report = *tr
	}
	return err
}

// newHead builds the MLP classifier of a decoupled family: in → hidden… →
// classes with the run's dropout, drawing from the run's source src. Fit
// and Restore both construct the head here, so a restored network cannot
// drift from the trained one.
func newHead[T tensor.Elem](in int, hidden []int, ds *dataset.Dataset, cfg TrainConfig, src rand.Source) *nn.SequentialOf[T] {
	return nn.NewMLPOf[T](nn.MLPConfig{
		In: in, Hidden: hidden, Out: ds.NumClasses, Dropout: cfg.Dropout, Bias: true,
	}, src)
}

// noInputGrad tells net's first Linear that its input is fixed data
// (features, precomputed embeddings), so training skips the ∂L/∂input
// nobody reads (nn.LinearOf.NoInputGrad); net.Backward then returns nil.
func noInputGrad[T tensor.Elem](net *nn.SequentialOf[T]) *nn.SequentialOf[T] {
	for _, l := range net.Layers {
		if lin, ok := l.(*nn.LinearOf[T]); ok {
			lin.NoInputGrad = true
			break
		}
	}
	return net
}

// trainHead trains mlp on fixed per-node embeddings with mini-batch SGD —
// the shared training path of every embedding+head model (SGC, SIGN, LD2
// all reduce to this after their precompute step): each step gathers its
// batch's embedding rows (train.Gather) and trains on them. It fills the
// timing parts of the report. The element type follows emb: float32
// embeddings train a float32 head end to end.
func trainHead[T tensor.Elem](model string, emb *tensor.Mat[T], mlp *nn.SequentialOf[T], pcg *rand.PCG, ds *dataset.Dataset, cfg TrainConfig, rep *Report) error {
	opt := nn.NewAdamOf[T](cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	// xb holds the gathered batch features, vb the validation selection;
	// both recycled across the run.
	src := train.NewBatches(ds.TrainIdx, cfg.BatchSize)
	var xb, vb tensor.BufOf[T]
	defer xb.Release()
	defer vb.Release()
	valLabels := dataset.LabelsAt(ds.Labels, ds.ValIdx)
	defer opt.Reset()
	return runLoop(model, ds, cfg, pcg, rep, train.SpecOf[T]{
		Source: src,
		Step: func(ids []int) error {
			logits := mlp.Forward(train.Gather(emb, ids, &xb), true)
			grad := tensor.GetBufOf[T](logits.Rows, logits.Cols)
			nn.SoftmaxCrossEntropyInto(logits, dataset.LabelsAt(ds.Labels, ids), grad)
			mlp.Backward(grad)
			tensor.PutBufOf(grad)
			opt.Step(mlp.Params())
			return nil
		},
		Validate: func() (float64, error) {
			valX := vb.Next(len(ds.ValIdx), emb.Cols)
			emb.SelectRowsInto(ds.ValIdx, valX)
			return metrics.Accuracy(nn.Argmax(mlp.Forward(valX, false)), valLabels), nil
		},
		Params:    mlp.Params(),
		Optimizer: opt,
		// Peak resident floats in one step: batch activations through the MLP.
		PeakFloats: func() int {
			return src.BatchSize()*(emb.Cols+2*cfg.Hidden+ds.NumClasses) + mlp.NumParams()*3
		},
	})
}

// rangeIdx returns [0, 1, ..., n-1].
func rangeIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// fillAccuracies computes train/val/test accuracy and test macro-F1 given a
// prediction function over node-index sets.
func fillAccuracies(predict func(idx []int) []int, ds *dataset.Dataset, rep *Report) {
	rep.TrainAcc = metrics.Accuracy(predict(ds.TrainIdx), dataset.LabelsAt(ds.Labels, ds.TrainIdx))
	rep.ValAcc = metrics.Accuracy(predict(ds.ValIdx), dataset.LabelsAt(ds.Labels, ds.ValIdx))
	testPred := predict(ds.TestIdx)
	testLabels := dataset.LabelsAt(ds.Labels, ds.TestIdx)
	rep.TestAcc = metrics.Accuracy(testPred, testLabels)
	rep.TestF1 = metrics.MacroF1(testPred, testLabels, ds.NumClasses)
}
