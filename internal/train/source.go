package train

import (
	"math/rand/v2"

	"scalegnn/internal/obs"
	"scalegnn/internal/tensor"
)

// Batches is the one batch source of the engine. How an epoch is sliced is
// the same for every family of the tutorial's §3.1.2: each epoch draws one
// permutation of an id set and cuts it into contiguous chunks. Only what a
// step does with its chunk differs:
//
//   - full batch (GCN, APPNP, implicit GNNs): no source at all — a nil
//     Spec.Source is one batch per epoch with nil ids, no shuffle and no RNG
//     draw;
//   - sampled mini-batch (GraphSAGE, the graph transformer): the ids are
//     training nodes, and the step samples or attends around them;
//   - partition batch (ClusterGCN): the ids are cluster ids, one per batch;
//   - precomputed-embedding mini-batch (SGC, SIGN, LD2, GAMLP): the ids are
//     training nodes, and the step gathers their rows (Gather).
//
// A nil *Batches is the full-batch source.
type Batches struct {
	idx     []int
	size    int
	perm    []int
	scratch []int
}

// NewBatches builds a source over idx. batchSize <= 0 or larger than the
// set means one batch per epoch.
func NewBatches(idx []int, batchSize int) *Batches {
	b := batchSize
	if b <= 0 || b > len(idx) {
		b = len(idx)
	}
	return &Batches{idx: idx, size: b, scratch: make([]int, b)}
}

// BatchSize returns the effective (clamped) batch size.
func (s *Batches) BatchSize() int { return s.size }

// shuffle draws the epoch's permutation: one tensor.Perm, nothing for the
// full-batch source.
func (s *Batches) shuffle(rng *rand.Rand) {
	if s != nil {
		s.perm = tensor.Perm(len(s.idx), rng)
	}
}

// count is the number of batches in an epoch.
func (s *Batches) count() int {
	switch {
	case s == nil:
		return 1
	case len(s.idx) == 0:
		return 0
	}
	return (len(s.idx) + s.size - 1) / s.size
}

// batch returns the ids of the epoch's i-th batch (nil for the full-batch
// source). The slice is reused by the next call.
func (s *Batches) batch(i int) []int {
	if s == nil {
		return nil
	}
	off := i * s.size
	out := s.scratch[:min(off+s.size, len(s.idx))-off]
	for j := range out {
		out[j] = s.idx[s.perm[off+j]]
	}
	return out
}

// Gather copies the rows ids of emb into buf's next matrix, recycled by
// buf's next call. It is the data movement a precomputed-embedding step
// pays per batch, so it gets its own span (train.gather) and feeds the
// train.rows_gathered counter.
func Gather[T tensor.Elem](emb *tensor.Mat[T], ids []int, buf *tensor.BufOf[T]) *tensor.Mat[T] {
	sp := obs.Start("train.gather")
	sp.SetCount(int64(len(ids)))
	x := buf.Next(len(ids), emb.Cols)
	emb.SelectRowsInto(ids, x)
	sp.End()
	rowsGathered.Add(int64(len(ids)))
	return x
}
