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
	// lint:confine score-path
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

// RunFingerprint exposes the snapshot-compatibility hash for a model name,
// dataset, and config — what ckpt.Manager.Latest needs to pick the right
// snapshot before a model instance exists.
func RunFingerprint(name string, ds *dataset.Dataset, cfg TrainConfig) uint64 {
	return runFingerprint(name, ds, cfg)
}

// tierState is a servable family's trained state at one numeric tier, seen
// tier-blind. The implementations are generic structs (headState[T],
// appnpState[T], gamlpState[T]); everything above this interface is
// non-generic, and logits cross it as float64.
type tierState interface {
	// nodes returns the number of servable node ids.
	nodes() int
	// fullLogits returns the full-graph logits, computed at the model's tier
	// on first use, widened once, and cached until the state is replaced.
	fullLogits() *tensor.Matrix
	// score writes the logits of idx into out; served.score has already
	// validated the ids and out's shape.
	score(idx []int, out *tensor.Matrix) error
}

// served is what a servable family holds after a successful Fit or Restore:
// its trained state and the logit width. The zero value means "before Fit".
type served struct {
	st      tierState
	classes int
}

// predict returns the argmax of the cached full-graph logits.
func (s served) predict(m namer) ([]int, error) {
	if s.st == nil {
		return nil, fmt.Errorf("models: %s.Predict before Fit", m.Name())
	}
	return nn.Argmax(s.st.fullLogits()), nil
}

func (s served) nodes() int {
	if s.st == nil {
		return 0
	}
	return s.st.nodes()
}

// score validates a NodeScorer.Score call and hands it to the trained state.
func (s served) score(m namer, idx []int, out *tensor.Matrix) error {
	if s.st == nil {
		return fmt.Errorf("models: %s.Score before Fit or Restore", m.Name())
	}
	if out.Rows != len(idx) || out.Cols != s.classes {
		return fmt.Errorf("models: %s.Score dst %dx%d, want %dx%d", m.Name(), out.Rows, out.Cols, len(idx), s.classes)
	}
	n := s.st.nodes()
	for _, v := range idx {
		if v < 0 || v >= n {
			return fmt.Errorf("models: %s.Score node %d outside [0,%d)", m.Name(), v, n)
		}
	}
	if err := s.st.score(idx, out); err != nil {
		return fmt.Errorf("models: %s.Score %w", m.Name(), err)
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
// LD2): a precomputed embedding and an MLP head at one tier.
type headState[T tensor.Elem] struct {
	emb   *tensor.Mat[T]
	net   *nn.SequentialOf[T]
	cache *tensor.Matrix
}

func (s *headState[T]) nodes() int { return s.emb.Rows }

func (s *headState[T]) fullLogits() *tensor.Matrix {
	if s.cache == nil {
		s.cache = widened(s.net.Forward(s.emb, false))
	}
	return s.cache
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
	want := runFingerprint(name, ds, cfg)
	if snap.Fingerprint != want {
		return fmt.Errorf("models: restore %s: %w: snapshot %016x, run %016x",
			name, ckpt.ErrFingerprint, snap.Fingerprint, want)
	}
	return nil
}

// blockValues returns a block's payload as []T, converting when the block
// was written at a different precision (e.g. a pre-dtype v1 snapshot read
// into a float64 run comes back uncopied).
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
