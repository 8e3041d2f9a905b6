package train

import (
	"math/rand/v2"

	"scalegnn/internal/obs"
	"scalegnn/internal/tensor"
)

// BatchOf is one unit of optimization work within an epoch, generic over
// the feature element type. Which fields are populated depends on the
// source that produced it:
//
//   - full-batch sources leave Indices nil (the step sees the whole graph);
//   - index sources fill Indices with dataset-global node IDs;
//   - cluster sources fill Cluster with the partition to visit;
//   - embedding sources additionally fill X with the gathered feature rows.
type BatchOf[T tensor.Elem] struct {
	// Epoch and Index locate the batch within the run (filled by the Loop).
	Epoch int
	Index int
	// Indices are dataset-global node indices; nil means full batch. The
	// slice is owned by the source and valid only until its next Batch or
	// Shuffle call.
	Indices []int
	// Cluster is the partition ID for cluster batches; -1 otherwise.
	Cluster int
	// X holds gathered per-node features for embedding batches (pooled,
	// recycled on the source's next Batch call); nil otherwise.
	X *tensor.Mat[T]
}

// Batch is the float64 instantiation of BatchOf.
type Batch = BatchOf[float64]

// Size returns the number of nodes in the batch (0 for full-batch work,
// where the step defines its own extent).
func (b BatchOf[T]) Size() int { return len(b.Indices) }

// BatchSourceOf is the axis along which the model families' training loops
// differ (tutorial §3.1.2): full-batch iterative, sampled/index mini-batch,
// partition batch, and precomputed-embedding mini-batch. The Loop drives
// one source per run:
//
//	Shuffle(rng)      — once per epoch, before the first batch;
//	Len()             — number of batches in the current epoch;
//	Batch(i)          — the i-th batch of the current epoch.
//
// Sources own their scratch: slices and matrices returned by Batch are
// valid only until the next Batch or Shuffle call.
type BatchSourceOf[T tensor.Elem] interface {
	Shuffle(rng *rand.Rand)
	Len() int
	Batch(i int) BatchOf[T]
}

// BatchSource is the float64 instantiation of BatchSourceOf.
type BatchSource = BatchSourceOf[float64]

// FullBatchOf is the degenerate source of full-batch models (GCN, APPNP,
// implicit GNNs): one batch per epoch covering everything, no shuffling —
// and, crucially for seed-stable migrations, no RNG consumption.
type FullBatchOf[T tensor.Elem] struct{}

// FullBatch is the float64 instantiation of FullBatchOf.
type FullBatch = FullBatchOf[float64]

// Shuffle implements BatchSourceOf (no-op: nothing to permute).
func (FullBatchOf[T]) Shuffle(*rand.Rand) {}

// Len implements BatchSourceOf.
func (FullBatchOf[T]) Len() int { return 1 }

// Batch implements BatchSourceOf.
func (FullBatchOf[T]) Batch(int) BatchOf[T] { return BatchOf[T]{Cluster: -1} }

// IndexBatchesOf is the index-permuted mini-batch source: each epoch draws a
// fresh permutation of the index set and slices it into contiguous batches,
// mapping positions back through the permutation — the GraphSAGE-style
// sampled-training schedule shared by every mini-batch family.
type IndexBatchesOf[T tensor.Elem] struct {
	idx     []int
	batch   int
	perm    []int
	scratch []int
}

// IndexBatches is the float64 instantiation of IndexBatchesOf.
type IndexBatches = IndexBatchesOf[float64]

// NewIndexBatches builds a float64 source over idx (typically the training
// split). batchSize <= 0 or larger than the set means one batch per epoch.
func NewIndexBatches(idx []int, batchSize int) *IndexBatches {
	return NewIndexBatchesOf[float64](idx, batchSize)
}

// NewIndexBatchesOf is NewIndexBatches for any element type.
func NewIndexBatchesOf[T tensor.Elem](idx []int, batchSize int) *IndexBatchesOf[T] {
	b := batchSize
	if b <= 0 || b > len(idx) {
		b = len(idx)
	}
	return &IndexBatchesOf[T]{idx: idx, batch: b, scratch: make([]int, b)}
}

// BatchSize returns the effective (clamped) batch size.
func (s *IndexBatchesOf[T]) BatchSize() int { return s.batch }

// Shuffle implements BatchSourceOf: one permutation draw per epoch.
func (s *IndexBatchesOf[T]) Shuffle(rng *rand.Rand) { s.perm = tensor.Perm(len(s.idx), rng) }

// Len implements BatchSourceOf.
func (s *IndexBatchesOf[T]) Len() int {
	if len(s.idx) == 0 {
		return 0
	}
	return (len(s.idx) + s.batch - 1) / s.batch
}

// Batch implements BatchSourceOf. The returned Indices slice is reused on
// the next call.
func (s *IndexBatchesOf[T]) Batch(i int) BatchOf[T] {
	off := i * s.batch
	end := min(off+s.batch, len(s.idx))
	out := s.scratch[:end-off]
	for j := range out {
		out[j] = s.idx[s.perm[off+j]]
	}
	return BatchOf[T]{Indices: out, Cluster: -1}
}

// ClusterBatchesOf is the partition-batch source (Cluster-GCN schedule):
// each epoch visits every cluster exactly once in a freshly permuted order.
// The source deals only in cluster IDs; the step owns the per-cluster state.
type ClusterBatchesOf[T tensor.Elem] struct {
	n    int
	perm []int
}

// NewClusterBatchesOf builds a source over n clusters.
func NewClusterBatchesOf[T tensor.Elem](n int) *ClusterBatchesOf[T] {
	return &ClusterBatchesOf[T]{n: n}
}

// Shuffle implements BatchSourceOf: one permutation draw per epoch.
func (s *ClusterBatchesOf[T]) Shuffle(rng *rand.Rand) { s.perm = tensor.Perm(s.n, rng) }

// Len implements BatchSourceOf.
func (s *ClusterBatchesOf[T]) Len() int { return s.n }

// Batch implements BatchSourceOf.
func (s *ClusterBatchesOf[T]) Batch(i int) BatchOf[T] { return BatchOf[T]{Cluster: s.perm[i]} }

// EmbeddingBatchesOf is the precomputed-embedding source of decoupled models
// (SGC/SIGN/LD2 heads): index-permuted mini-batches whose feature rows are
// gathered from a fixed embedding matrix into a pooled buffer — training
// with zero graph access.
type EmbeddingBatchesOf[T tensor.Elem] struct {
	IndexBatchesOf[T]
	emb *tensor.Mat[T]
	xb  tensor.BufOf[T]
}

// EmbeddingBatches is the float64 instantiation of EmbeddingBatchesOf.
type EmbeddingBatches = EmbeddingBatchesOf[float64]

// NewEmbeddingBatches builds a source gathering rows of emb for each batch
// of idx; the element type follows emb.
func NewEmbeddingBatches[T tensor.Elem](emb *tensor.Mat[T], idx []int, batchSize int) *EmbeddingBatchesOf[T] {
	return &EmbeddingBatchesOf[T]{IndexBatchesOf: *NewIndexBatchesOf[T](idx, batchSize), emb: emb}
}

// Batch implements BatchSourceOf: the index batch plus its gathered
// features. Both the Indices slice and X are recycled on the next call. The
// gather is the data-movement cost decoupled training pays per batch, so it
// gets its own span (train.gather) and feeds the train.rows_gathered
// counter.
func (s *EmbeddingBatchesOf[T]) Batch(i int) BatchOf[T] {
	b := s.IndexBatchesOf.Batch(i)
	sp := obs.Start("train.gather")
	sp.SetCount(int64(len(b.Indices)))
	x := s.xb.Next(len(b.Indices), s.emb.Cols)
	s.emb.SelectRowsInto(b.Indices, x)
	sp.End()
	rowsGathered.Add(int64(len(b.Indices)))
	b.X = x
	return b
}

// Release returns the gather buffer to the shared workspace. Call when
// training completes (the Loop does not own source scratch).
func (s *EmbeddingBatchesOf[T]) Release() { s.xb.Release() }
