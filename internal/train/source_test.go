package train

import (
	"testing"

	"scalegnn/internal/tensor"
)

func TestIndexBatchesClamping(t *testing.T) {
	idx := []int{4, 5, 6}
	for _, bs := range []int{0, -1, 3, 99} {
		s := NewIndexBatches(idx, bs)
		if s.BatchSize() != 3 {
			t.Errorf("batchSize %d clamped to %d, want 3", bs, s.BatchSize())
		}
		if s.Len() != 1 {
			t.Errorf("batchSize %d: Len %d, want 1", bs, s.Len())
		}
	}
	s := NewIndexBatches(idx, 2)
	if s.Len() != 2 {
		t.Errorf("Len %d, want 2", s.Len())
	}
}

func TestIndexBatchesEmptySet(t *testing.T) {
	s := NewIndexBatches(nil, 8)
	if s.Len() != 0 {
		t.Errorf("empty index set: Len %d, want 0", s.Len())
	}
	s.Shuffle(tensor.NewRand(1)) // must not panic
}

func TestIndexBatchesPermutationMatchesTensorPerm(t *testing.T) {
	// The engine's determinism contract: Shuffle consumes exactly one
	// tensor.Perm draw, so a source and a bare Perm with the same seed agree.
	idx := []int{100, 101, 102, 103, 104}
	s := NewIndexBatches(idx, 2)
	s.Shuffle(tensor.NewRand(7))
	want := tensor.Perm(len(idx), tensor.NewRand(7))
	var got []int
	for i := 0; i < s.Len(); i++ {
		got = append(got, s.Batch(i).Indices...)
	}
	for i, p := range want {
		if got[i] != idx[p] {
			t.Fatalf("position %d: got %d want %d", i, got[i], idx[p])
		}
	}
}

func TestFullBatchIsRNGFree(t *testing.T) {
	// FullBatch.Shuffle must not consume randomness — full-batch models
	// never drew a permutation, and their fingerprints depend on that.
	rng := tensor.NewRand(3)
	before := rng.Uint64()
	rng = tensor.NewRand(3)
	FullBatch{}.Shuffle(rng)
	if after := rng.Uint64(); after != before {
		t.Error("FullBatch.Shuffle consumed RNG state")
	}
	if (FullBatch{}).Len() != 1 {
		t.Error("FullBatch.Len != 1")
	}
	b := FullBatch{}.Batch(0)
	if b.Indices != nil || b.Cluster != -1 || b.X != nil {
		t.Errorf("FullBatch batch: %+v", b)
	}
}

func TestClusterBatchesPermute(t *testing.T) {
	s := NewClusterBatchesOf[float64](5)
	s.Shuffle(tensor.NewRand(11))
	seen := map[int]bool{}
	for i := 0; i < s.Len(); i++ {
		b := s.Batch(i)
		if b.Indices != nil {
			t.Errorf("cluster batch has indices: %+v", b)
		}
		seen[b.Cluster] = true
	}
	if len(seen) != 5 {
		t.Errorf("visited %d distinct clusters, want 5", len(seen))
	}
}

func TestEmbeddingBatchesScratchReuse(t *testing.T) {
	emb := tensor.New(8, 3)
	for i := 0; i < 8; i++ {
		for j := 0; j < 3; j++ {
			emb.Row(i)[j] = float64(i*10 + j)
		}
	}
	s := NewEmbeddingBatches(emb, []int{0, 2, 4, 6}, 2)
	defer s.Release()
	s.Shuffle(tensor.NewRand(1))
	b0 := s.Batch(0)
	first := b0.X
	for i, v := range b0.Indices {
		for j := 0; j < 3; j++ {
			if b0.X.Row(i)[j] != float64(v*10+j) {
				t.Fatalf("gather mismatch at row %d col %d", i, j)
			}
		}
	}
	// Under the race detector sync.Pool deliberately drops a fraction of
	// Puts, so allow a few rounds before declaring recycling broken.
	recycled := false
	for i := 0; i < 50 && !recycled; i++ {
		b1 := s.Batch(i % 2)
		recycled = b1.X == first
		first = b1.X
	}
	if !recycled {
		t.Error("gather buffer not recycled between batches")
	}
}
