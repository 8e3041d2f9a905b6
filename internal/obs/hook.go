package obs

import "time"

// BatchEnd is the per-batch training observation payload. It is defined
// here (not in internal/train) so TrainHook can satisfy train.Hook without
// an import cycle: internal/train imports obs for span instrumentation and
// re-exports these types as aliases, so train.Hook's method signatures and
// obs.TrainHook's match exactly.
type BatchEnd struct {
	Epoch int
	Batch int
	// Size is the node count of the batch (0 for full-batch steps).
	Size int
	// Trace is the training run's trace id (zero when the run is untraced),
	// so hook consumers can correlate their own output — log lines, emitted
	// events — with the run's span timeline.
	Trace TraceID
}

// EpochEnd is the per-epoch training observation payload.
type EpochEnd struct {
	Epoch  int
	ValAcc float64
	// Improved reports whether this epoch set a new validation best.
	Improved bool
	Best     float64
	// Elapsed is wall-clock time since training started.
	Elapsed time.Duration
	// Trace is the training run's trace id (zero when untraced).
	Trace TraceID
}

// TrainHook streams engine progress into a Registry. It implements
// train.Hook. Per metric name registry (see DESIGN.md "Observability"):
//
//	train.batches        counter  batches completed
//	train.epochs         counter  epochs completed
//	train.batch_nodes    counter  batch ids stepped (0 per full batch,
//	                              1 per ClusterGCN cluster)
//	train.batches_per_s  gauge    completed batches / elapsed seconds
//	train.val_acc        gauge    last validation accuracy
//	train.best_val_acc   gauge    best validation accuracy so far
//	train.epoch_seconds  histogram  per-epoch wall time
//
// All instruments are registered at construction; OnBatch is two atomic
// increments plus a gauge store and allocates nothing.
type TrainHook struct {
	batches    *Counter
	epochs     *Counter
	batchNodes *Counter
	rate       *Gauge
	valAcc     *Gauge
	bestVal    *Gauge
	epochSecs  *Histogram

	start       time.Time
	lastElapsed time.Duration
}

// NewTrainHook registers the engine metrics on reg and returns the hook.
func NewTrainHook(reg *Registry) *TrainHook {
	return &TrainHook{
		batches:    reg.Counter("train.batches"),
		epochs:     reg.Counter("train.epochs"),
		batchNodes: reg.Counter("train.batch_nodes"),
		rate:       reg.Gauge("train.batches_per_s"),
		valAcc:     reg.Gauge("train.val_acc"),
		bestVal:    reg.Gauge("train.best_val_acc"),
		epochSecs:  reg.Histogram("train.epoch_seconds", DefaultDurationBuckets),
		start:      time.Now(),
	}
}

// OnBatch implements train.Hook.
func (h *TrainHook) OnBatch(e BatchEnd) {
	h.batches.Add(1)
	h.batchNodes.Add(int64(e.Size))
}

// OnEpoch implements train.Hook.
func (h *TrainHook) OnEpoch(e EpochEnd) {
	h.epochs.Add(1)
	h.valAcc.Set(e.ValAcc)
	h.bestVal.Set(e.Best)
	h.epochSecs.Observe((e.Elapsed - h.lastElapsed).Seconds())
	h.lastElapsed = e.Elapsed
	if s := time.Since(h.start).Seconds(); s > 0 {
		h.rate.Set(float64(h.batches.Value()) / s)
	}
}
