// Package train is the unified training engine behind every model family
// in internal/models. The tutorial's survey of scalable-GNN systems (§3.1.2)
// shows that the families differ in what a training step does with a batch,
// while how an epoch is sliced is the same for all of them — one shuffled
// list of ids, cut into chunks — and so is everything around it: early
// stopping, validation cadence, timing, and memory accounting. This package
// owns the shared part once:
//
//   - Batches is the one batch source (source.go); a nil source is one full
//     batch per epoch;
//   - Run drives the epoch loop with PCG-seeded shuffling, early stopping
//     with optional best-validation weight restoration, context.Context
//     cancellation/deadline, and wall-clock plus peak-resident-float
//     accounting;
//   - Hook receives OnBatch/OnEpoch callbacks for metrics, tracing, and
//     progress layers without touching the hot path.
//
// Determinism contract: with the same Config, Spec, and PCG state, Run
// consumes randomness in exactly the order of the hand-rolled loops it
// replaced (one permutation per epoch, then the step's own draws batch by
// batch), so migrated models produce bitwise-identical parameters and
// predictions. RestoreBest is off by default because restoring changes
// final weights relative to those legacy loops.
package train

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"scalegnn/internal/fault"
	"scalegnn/internal/nn"
	"scalegnn/internal/obs"
	"scalegnn/internal/tensor"
)

// Config holds the engine-level schedule settings.
type Config struct {
	// Epochs is the maximum number of epochs (>= 1).
	Epochs int
	// Patience stops training after this many epochs without validation
	// improvement; 0 disables early stopping.
	Patience int
	// RestoreBest restores the best-validation parameter snapshot (of
	// Spec.Params) when training ends. Off by default: legacy loops kept
	// the final weights, and fingerprint comparisons rely on that.
	RestoreBest bool
	// RNG is the run's random source, shared with the model's own
	// stochastic layers: the engine draws each epoch's permutation through
	// rand.New(RNG), and checkpointing marshals it. Required when
	// Spec.Source is set or checkpointing is on.
	RNG *rand.PCG
	// Ctx cancels training between batches; nil means never.
	Ctx context.Context
	// Hooks observe the run. Hook errors are not possible by construction;
	// hooks must not mutate model state.
	Hooks []Hook
	// Checkpoint enables durable snapshot/resume (see checkpoint.go). The
	// zero value disables it.
	Checkpoint CheckpointConfig
}

// SpecOf is what a model brings to the engine: its batch source and the
// three model-specific operations of one training run, generic over the
// element type its parameters and features are stored in.
type SpecOf[T tensor.Elem] struct {
	// Source yields each epoch's batches; nil is one full batch per epoch.
	Source *Batches
	// Step runs forward/backward/optimizer-update for one batch of ids
	// (nil on a full batch; valid only until Step returns). Required.
	Step func(ids []int) error
	// Validate returns the epoch's validation accuracy. Required.
	Validate func() (float64, error)
	// Params are the learnables snapshotted for Config.RestoreBest and
	// serialized by checkpointing; may be nil when both are off.
	Params []*nn.ParamOf[T]
	// Optimizer's moment state is serialized by checkpointing; required
	// when Config.Checkpoint is enabled, ignored otherwise.
	Optimizer *nn.AdamOf[T]
	// PeakFloats, when set, is called once after training to fill
	// Report.PeakFloats (the resident-float peak of one step — the
	// GPU-memory proxy reported by every family).
	PeakFloats func() int
}

// Spec is the float64 instantiation of SpecOf.
type Spec = SpecOf[float64]

// StopReason records how a run ended.
type StopReason string

// Stop reasons.
const (
	StopCompleted StopReason = "completed"  // ran all configured epochs
	StopEarly     StopReason = "early-stop" // patience exhausted
	StopCancelled StopReason = "cancelled"  // context cancelled or expired
)

// Report is the engine's accounting of one run.
type Report struct {
	// Epochs actually run (the last one may be partial under cancellation).
	Epochs int
	// TrainTime is the wall-clock optimization time; EpochTime is
	// TrainTime / Epochs.
	TrainTime time.Duration
	EpochTime time.Duration
	// BestVal / BestEpoch track the best validation accuracy seen and when.
	BestVal   float64
	BestEpoch int
	// PeakFloats is Spec.PeakFloats() (0 when unset).
	PeakFloats int
	// Stopped records why the run ended.
	Stopped StopReason
}

// BatchEnd is the per-batch hook payload. It is an alias for the obs
// package's type (observation payloads belong to the observability layer)
// so that obs.TrainHook satisfies Hook without an import cycle: train
// imports obs for its span instrumentation, never the reverse.
type BatchEnd = obs.BatchEnd

// EpochEnd is the per-epoch hook payload (alias, see BatchEnd).
type EpochEnd = obs.EpochEnd

// Hook observes a training run. Implementations must be cheap or sample
// internally: OnBatch sits on the hot path.
type Hook interface {
	OnBatch(BatchEnd)
	OnEpoch(EpochEnd)
}

// earlyStop tracks validation accuracy with patience (strict improvement,
// matching the legacy per-model stoppers).
type earlyStop struct {
	best     float64
	bestAt   int
	patience int
}

// update records an epoch's validation accuracy, returning whether it
// improved the best and whether training should stop.
func (e *earlyStop) update(epoch int, valAcc float64) (improved, stop bool) {
	if valAcc > e.best {
		e.best = valAcc
		e.bestAt = epoch
		return true, false
	}
	return false, e.patience > 0 && epoch-e.bestAt >= e.patience
}

// snapshotOf is a deep copy of parameter values.
type snapshotOf[T tensor.Elem] [][]T

func takeSnapshot[T tensor.Elem](params []*nn.ParamOf[T], into snapshotOf[T]) snapshotOf[T] {
	if into == nil {
		into = make(snapshotOf[T], len(params))
		for i, p := range params {
			into[i] = make([]T, len(p.Value.Data))
		}
	}
	for i, p := range params {
		copy(into[i], p.Value.Data)
	}
	return into
}

func (s snapshotOf[T]) restore(params []*nn.ParamOf[T]) {
	for i, p := range params {
		copy(p.Value.Data, s[i])
	}
}

// Run executes one training run. It returns a non-nil partial Report
// together with a wrapped context error when cancelled mid-run; any other
// error (step, validation, config) returns a nil report. The element type
// is inferred from the Spec: float64 specs run the bitwise-reproducible
// reference path, float32 specs the raw-speed tier.
func Run[T tensor.Elem](cfg Config, spec SpecOf[T]) (*Report, error) {
	if err := check(&cfg, &spec); err != nil {
		return nil, err
	}
	rng := rand.New(cfg.RNG)
	var ck *ckptRunner[T]
	if cfg.Checkpoint.Dir != "" {
		var err error
		if ck, err = newCkptRunner(&cfg, &spec); err != nil {
			return nil, err
		}
	}

	stopper := earlyStop{best: -1, patience: cfg.Patience}
	rep := &Report{BestVal: -1, BestEpoch: -1, Stopped: StopCompleted}
	var best snapshotOf[T]
	// Resume before the clock starts: a restored run reports only the time
	// it spent training after the snapshot.
	startEpoch, resumeBatch := 0, -1
	if ck != nil && cfg.Checkpoint.Resume {
		snap, restoredBest, err := ck.resume(&stopper, rep)
		if err != nil {
			return nil, err
		}
		if snap != nil {
			best = restoredBest
			startEpoch = snap.Epoch
			resumeBatch = snap.Batch // -1 at a boundary, else mid-epoch cursor
		}
	}
	start := time.Now()
	// The engine is the span emitter for the training timeline: run → epoch
	// → {shuffle, batch, validate}. With no tracer installed every span call
	// below is a guarded no-op (see the obs overhead contract), so the hot
	// path is unchanged; with one installed, observation still never touches
	// cfg.RNG or model state, keeping outputs bitwise identical.
	// The run roots a trace (a fresh id per run, crypto/rand — never
	// cfg.RNG): every epoch/batch span inherits it, and the hook payloads
	// carry it so log lines correlate with the JSONL timeline by trace_id.
	runSp := obs.StartRequest("train.run", obs.TraceContext{})
	defer runSp.End()
	finish := func(reason StopReason) {
		rep.Stopped = reason
		rep.TrainTime = time.Since(start)
		if rep.Epochs > 0 {
			rep.EpochTime = rep.TrainTime / time.Duration(rep.Epochs)
		}
		if cfg.RestoreBest && best != nil {
			best.restore(spec.Params)
		}
		if spec.PeakFloats != nil {
			rep.PeakFloats = spec.PeakFloats()
		}
		peakFloats.Set(float64(rep.PeakFloats))
	}

	// A boundary snapshot can capture a run whose patience was already
	// exhausted at its final epoch (the early stop and the snapshot happen
	// at the same boundary). Re-evaluate before training: running even one
	// more epoch would diverge from the uninterrupted run.
	if startEpoch > 0 && resumeBatch < 0 &&
		stopper.patience > 0 && (startEpoch-1)-stopper.bestAt >= stopper.patience {
		finish(StopEarly)
		return rep, nil
	}

	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		rep.Epochs++
		epSp := runSp.Child("train.epoch")
		// A mid-epoch resume replays this epoch's shuffle from the restored
		// pre-shuffle RNG state — re-deriving the exact permutation the
		// interrupted run drew — then jumps the RNG to the snapshot cursor.
		// Every other epoch records the pre-shuffle state first so it can be
		// replayed the same way later.
		midResume := ck != nil && resumeBatch >= 0 && epoch == startEpoch
		if ck != nil && !midResume {
			if err := ck.beginEpoch(); err != nil {
				epSp.End()
				return nil, err
			}
		}
		shSp := epSp.Child("train.shuffle")
		spec.Source.shuffle(rng)
		shSp.End()
		firstBatch := 0
		if midResume {
			if err := ck.replayedShuffle(); err != nil {
				epSp.End()
				return nil, err
			}
			firstBatch = resumeBatch
			resumeBatch = -1
		}
		n := spec.Source.count()
		for i := firstBatch; i < n; i++ {
			if err := ctxErr(cfg.Ctx); err != nil {
				err = fmt.Errorf("train: cancelled at epoch %d batch %d: %w", epoch, i, err)
				if ck != nil {
					if serr := ck.save(epoch, i, &stopper, rep, best); serr != nil {
						err = fmt.Errorf("%w (cancellation snapshot also failed: %v)", err, serr)
					}
				}
				epSp.End()
				finish(StopCancelled)
				return rep, err
			}
			if err := fault.Inject("train.batch"); err != nil {
				epSp.End()
				return nil, fmt.Errorf("train: batch failpoint (epoch %d batch %d): %w", epoch, i, err)
			}
			ids := spec.Source.batch(i)
			bSp := epSp.Child("train.batch")
			bSp.SetCount(int64(len(ids)))
			err := spec.Step(ids)
			bSp.End()
			if err != nil {
				epSp.End()
				return nil, fmt.Errorf("train: step (epoch %d batch %d): %w", epoch, i, err)
			}
			for _, h := range cfg.Hooks {
				h.OnBatch(BatchEnd{Epoch: epoch, Batch: i, Size: len(ids), Trace: runSp.TraceID()})
			}
		}
		vSp := epSp.Child("train.validate")
		val, err := spec.Validate()
		vSp.End()
		epSp.End()
		if err != nil {
			return nil, fmt.Errorf("train: validate (epoch %d): %w", epoch, err)
		}
		improved, stop := stopper.update(epoch, val)
		if improved {
			rep.BestVal, rep.BestEpoch = val, epoch
			if cfg.RestoreBest {
				best = takeSnapshot(spec.Params, best)
			}
		}
		for _, h := range cfg.Hooks {
			h.OnEpoch(EpochEnd{
				Epoch: epoch, ValAcc: val, Improved: improved,
				Best: stopper.best, Elapsed: time.Since(start),
				Trace: runSp.TraceID(),
			})
		}
		if ck != nil && ck.boundary(epoch, cfg.Epochs, stop) {
			if err := ck.save(epoch+1, -1, &stopper, rep, best); err != nil {
				return nil, err
			}
		}
		if stop {
			finish(StopEarly)
			return rep, nil
		}
	}
	finish(StopCompleted)
	return rep, nil
}

// check rejects a run the engine cannot drive.
func check[T tensor.Elem](cfg *Config, spec *SpecOf[T]) error {
	ck := cfg.Checkpoint.Dir != ""
	switch {
	case cfg.Epochs < 1:
		return fmt.Errorf("train: epochs %d < 1", cfg.Epochs)
	case spec.Step == nil || spec.Validate == nil:
		return fmt.Errorf("train: spec needs Step and Validate")
	case cfg.RestoreBest && len(spec.Params) == 0:
		return fmt.Errorf("train: RestoreBest needs Spec.Params")
	case ck && len(spec.Params) == 0:
		return fmt.Errorf("train: checkpointing needs Spec.Params")
	case ck && spec.Optimizer == nil:
		return fmt.Errorf("train: checkpointing needs Spec.Optimizer")
	case ck && cfg.RNG == nil:
		return fmt.Errorf("train: checkpointing needs Config.RNG")
	case spec.Source != nil && cfg.RNG == nil:
		return fmt.Errorf("train: Spec.Source shuffles and needs Config.RNG")
	}
	return nil
}

// Engine-level metric refs, disabled (one atomic load, no work) until
// EnableMetrics binds them to a registry.
var (
	rowsGathered obs.CounterRef
	peakFloats   obs.GaugeRef
)

// EnableMetrics binds the engine's metrics to reg (see DESIGN.md
// "Observability" for the name registry):
//
//	train.rows_gathered  counter  feature rows gathered by Gather
//	train.peak_floats    gauge    Report.PeakFloats of the latest run
//
// Call once at process start (the CLIs do, behind -metrics-addr); pass nil
// to unbind.
func EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		rowsGathered.Bind(nil)
		peakFloats.Bind(nil)
		return
	}
	rowsGathered.Bind(reg.Counter("train.rows_gathered"))
	peakFloats.Bind(reg.Gauge("train.peak_floats"))
}

// ctxErr reports a context's error, treating nil as never-cancelled.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
