// Serving support for the decoupled families (§3.1.2): the
// precompute-then-MLP split means a trained model is an embedding matrix
// plus a small head, so per-node inference is a row gather and one batched
// forward — no graph access on the request path. This file defines the
// NodeScorer contract internal/serve drives, and Restore, which rebuilds a
// servable model from a ckpt snapshot without retraining.
package models

import (
	"errors"
	"fmt"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/nn"
	"scalegnn/internal/tensor"
)

// NodeScorer is the per-node inference contract of the decoupled families.
// Score computes class logits for a set of nodes in one batched head
// forward; implementations reuse pooled scratch and layer-internal buffers,
// so a NodeScorer is NOT safe for concurrent Score calls — the serving
// layer funnels all scoring through one dispatcher. Logits are delivered as
// float64 regardless of the tier the model was trained at: a float32 model
// computes in float32 and widens once at the boundary.
type NodeScorer interface {
	// Name identifies the model family (matches Trainer.Name).
	Name() string
	// Nodes returns the number of servable node ids (0 before Fit/Restore).
	Nodes() int
	// Classes returns the logit width (0 before Fit/Restore).
	Classes() int
	// Score writes class logits for the given nodes into out, which must be
	// len(idx) x Classes() and must not alias model-held storage.
	Score(idx []int, out *tensor.Matrix) error
}

// Restorer rebuilds a trained model from a checkpoint snapshot without
// retraining: the graph-side precompute reruns, the network is constructed
// by the same code Fit uses, and its weights come from the snapshot. The
// dataset and config must describe the run that produced the snapshot —
// Restore rejects a mismatch with ckpt.ErrFingerprint. A float32-run
// snapshot restores only under cfg.DType = "float32" (the fingerprint
// encodes the tier). A failed Restore leaves the model as it was.
type Restorer interface {
	Restore(ds *dataset.Dataset, cfg TrainConfig, snap *ckpt.Snapshot) error
}

// The five decoupled families are servable and restorable.
var (
	_ NodeScorer = (*SGC)(nil)
	_ NodeScorer = (*SIGN)(nil)
	_ NodeScorer = (*APPNP)(nil)
	_ NodeScorer = (*GAMLP)(nil)
	_ NodeScorer = (*LD2)(nil)

	_ Restorer = (*SGC)(nil)
	_ Restorer = (*SIGN)(nil)
	_ Restorer = (*APPNP)(nil)
	_ Restorer = (*GAMLP)(nil)
	_ Restorer = (*LD2)(nil)
)

// tierState is a servable family's trained state at one numeric tier, seen
// tier-blind. The implementations are generic structs (headState[T],
// appnpState[T]); everything above this interface is non-generic, and
// logits cross it as float64.
type tierState interface {
	// shape returns the number of servable node ids and the logit width.
	shape() (nodes, classes int)
	// fullLogits returns the full-graph logits, computed at the model's tier
	// on first use, widened once, and cached until the state is replaced.
	fullLogits() *tensor.Matrix
	// score writes the logits of idx into out; served.Score has already
	// validated the ids and out's shape.
	score(idx []int, out *tensor.Matrix) error
}

// served is what the five decoupled families share: the trained state
// atTier installs after a successful Fit or Restore, and the Trainer and
// NodeScorer methods, written once here and promoted to each family.
type served struct {
	family string    // names the family in errors; set by its constructor
	st     tierState // nil before Fit or Restore
}

// Predict implements Trainer. Predictions come from the logits cached on
// first use after Fit/Restore: the model does not rerun over every node on
// every call.
func (s served) Predict(*dataset.Dataset) ([]int, error) {
	if s.st == nil {
		return nil, fmt.Errorf("models: %s.Predict before Fit", s.family)
	}
	return nn.Argmax(s.st.fullLogits()), nil
}

func (s served) shape() (nodes, classes int) {
	if s.st == nil {
		return 0, 0
	}
	return s.st.shape()
}

// Nodes implements NodeScorer.
func (s served) Nodes() int {
	n, _ := s.shape()
	return n
}

// Classes implements NodeScorer.
func (s served) Classes() int {
	_, c := s.shape()
	return c
}

// Score implements NodeScorer: batched per-node logits in one pooled gather
// and head forward (a row read of the cached logits for APPNP).
func (s served) Score(idx []int, out *tensor.Matrix) error {
	if s.st == nil {
		return fmt.Errorf("models: %s.Score before Fit or Restore", s.family)
	}
	n, c := s.st.shape()
	if out.Rows != len(idx) || out.Cols != c {
		return fmt.Errorf("models: %s.Score dst %dx%d, want %dx%d", s.family, out.Rows, out.Cols, len(idx), c)
	}
	for _, v := range idx {
		if v < 0 || v >= n {
			return fmt.Errorf("models: %s.Score node %d outside [0,%d)", s.family, v, n)
		}
	}
	if err := s.st.score(idx, out); err != nil {
		return fmt.Errorf("models: %s.Score %w", s.family, err)
	}
	return nil
}

// widened copies a tier-T matrix (typically a layer-owned forward output)
// into a fresh float64 matrix.
func widened[T tensor.Elem](y *tensor.Mat[T]) *tensor.Matrix {
	c := tensor.New(y.Rows, y.Cols)
	tensor.WidenInto(y, c)
	return c
}

// aliases reports whether the float64 destination overlaps m's storage,
// which only a float64-tier matrix can.
func aliases[T tensor.Elem](out *tensor.Matrix, m *tensor.Mat[T]) bool {
	m64, ok := any(m).(*tensor.Matrix)
	return ok && tensor.Overlaps(out.Data, m64.Data)
}

// headState is the trained state of the embedding+head families (SGC, SIGN,
// LD2, GAMLP): a per-node embedding and an MLP head at one tier.
type headState[T tensor.Elem] struct {
	emb     *tensor.Mat[T]
	net     *nn.SequentialOf[T]
	classes int
	cache   *tensor.Matrix
}

func (s *headState[T]) shape() (int, int) { return s.emb.Rows, s.classes }

func (s *headState[T]) fullLogits() *tensor.Matrix {
	if s.cache == nil {
		s.cache = widened(s.net.Forward(s.emb, false))
	}
	return s.cache
}

// predict classifies the rows idx: the report's train/val/test predictions.
func (s *headState[T]) predict(idx []int) []int {
	return nn.Argmax(s.net.Forward(s.emb.SelectRows(idx), false))
}

// score gathers the embedding rows of idx and runs them through the head —
// the batched serving kernel. Row independence of the dense kernels makes
// the result bitwise-equal to the same rows of a full-graph forward at the
// model's tier; float32 logits widen into the float64 destination.
func (s *headState[T]) score(idx []int, out *tensor.Matrix) error {
	if aliases(out, s.emb) {
		return errors.New("dst aliases the embedding")
	}
	sel := tensor.GetBufOf[T](len(idx), s.emb.Cols)
	s.emb.SelectRowsInto(idx, sel)
	tensor.WidenInto(s.net.Forward(sel, false), out)
	tensor.PutBufOf(sel)
	return nil
}

// checkSnapshotFingerprint rejects restoring a snapshot produced by a
// different model, dataset, hyperparameter set, or numeric tier.
func checkSnapshotFingerprint(name string, ds *dataset.Dataset, cfg TrainConfig, snap *ckpt.Snapshot) error {
	want := RunFingerprint(name, ds, cfg)
	if snap.Fingerprint != want {
		return fmt.Errorf("models: restore %s: %w: snapshot %016x, run %016x",
			name, ckpt.ErrFingerprint, snap.Fingerprint, want)
	}
	return nil
}

// blockValues returns a block's payload as []T, converting when the block
// was written at a different precision (a block already at T's precision
// comes back uncopied).
func blockValues[T tensor.Elem](b ckpt.Block) []T {
	var z T
	if _, ok := any(z).(float32); ok {
		return any(b.Float32()).([]T)
	}
	return any(b.Float64()).([]T)
}

// restoreParams copies the snapshot's param.* blocks into the freshly built
// parameter list, in the same order the training engine saved them.
func restoreParams[T tensor.Elem](name string, params []*nn.ParamOf[T], snap *ckpt.Snapshot) error {
	blocks := make(map[string]ckpt.Block, len(snap.Blocks))
	for _, b := range snap.Blocks {
		blocks[b.Name] = b
	}
	for i, p := range params {
		key := fmt.Sprintf("param.%d", i)
		b, ok := blocks[key]
		if !ok {
			return fmt.Errorf("models: restore %s: snapshot has no block %q", name, key)
		}
		if b.Rows != p.Value.Rows || b.Cols != p.Value.Cols {
			return fmt.Errorf("models: restore %s: block %q is %dx%d, model wants %dx%d",
				name, key, b.Rows, b.Cols, p.Value.Rows, p.Value.Cols)
		}
		copy(p.Value.Data, blockValues[T](b))
	}
	if _, extra := blocks[fmt.Sprintf("param.%d", len(params))]; extra {
		return fmt.Errorf("models: restore %s: snapshot has more than %d parameter blocks", name, len(params))
	}
	return nil
}

// restoreAtTier is atTier for Restorer implementations: the same build
// functions as Fit, with the weights loaded from snap instead of trained.
func restoreAtTier[M namer, S any](m M, dst *S, ds *dataset.Dataset, cfg TrainConfig, snap *ckpt.Snapshot, f64, f32 tierFunc[M, S]) error {
	if snap == nil {
		return fmt.Errorf("models: restore %s: nil snapshot", m.Name())
	}
	_, err := atTier(m, dst, ds, cfg, snap, f64, f32)
	return err
}
