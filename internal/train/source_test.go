package train

import (
	"bytes"
	"slices"
	"testing"

	"scalegnn/internal/obs"
	"scalegnn/internal/tensor"
)

func TestIndexBatchesClamping(t *testing.T) {
	idx := []int{4, 5, 6}
	for _, bs := range []int{0, -1, 3, 99} {
		s := NewBatches(idx, bs)
		if s.BatchSize() != 3 {
			t.Errorf("batchSize %d clamped to %d, want 3", bs, s.BatchSize())
		}
		if s.count() != 1 {
			t.Errorf("batchSize %d: count %d, want 1", bs, s.count())
		}
	}
	s := NewBatches(idx, 2)
	if s.count() != 2 {
		t.Errorf("count %d, want 2", s.count())
	}
}

func TestIndexBatchesEmptySet(t *testing.T) {
	s := NewBatches(nil, 8)
	if s.count() != 0 {
		t.Errorf("empty index set: count %d, want 0", s.count())
	}
	s.shuffle(tensor.NewRand(1)) // must not panic
}

func TestIndexBatchesPermutationMatchesTensorPerm(t *testing.T) {
	// The engine's determinism contract: shuffle consumes exactly one
	// tensor.Perm draw, so a source and a bare Perm with the same seed agree.
	idx := []int{100, 101, 102, 103, 104}
	s := NewBatches(idx, 2)
	s.shuffle(tensor.NewRand(7))
	want := tensor.Perm(len(idx), tensor.NewRand(7))
	var got []int
	for i := 0; i < s.count(); i++ {
		got = append(got, s.batch(i)...)
	}
	for i, p := range want {
		if got[i] != idx[p] {
			t.Fatalf("position %d: got %d want %d", i, got[i], idx[p])
		}
	}
}

func TestFullBatchIsRNGFree(t *testing.T) {
	// A nil Source must not consume randomness — full-batch models never
	// drew a permutation, and their fingerprints depend on that.
	pcg := tensor.NewPCG(3)
	before, _ := pcg.MarshalBinary()
	f := newFakeModel(0.5)
	if _, err := Run(Config{Epochs: 3, RNG: pcg}, f.spec(nil)); err != nil {
		t.Fatal(err)
	}
	if after, _ := pcg.MarshalBinary(); !bytes.Equal(after, before) {
		t.Error("a full-batch run consumed RNG state")
	}
	if len(f.batches) != 3 {
		t.Errorf("full batch stepped %d times in 3 epochs, want 3", len(f.batches))
	}
}

func TestClusterBatchesPermute(t *testing.T) {
	// ClusterGCN's schedule: batches of one cluster id over [0, k) visit
	// every cluster once per epoch, in the order of one tensor.Perm(k) draw.
	const k, seed = 5, 11
	f := newFakeModel(0.5)
	ids := []int{0, 1, 2, 3, 4}
	if _, err := Run(Config{Epochs: 1, RNG: tensor.NewPCG(seed)}, f.spec(NewBatches(ids, 1))); err != nil {
		t.Fatal(err)
	}
	want := tensor.Perm(k, tensor.NewRand(seed))
	if len(f.batches) != k {
		t.Fatalf("stepped %d batches, want %d", len(f.batches), k)
	}
	for i, b := range f.batches {
		if len(b.ids) != 1 || b.ids[0] != want[i] {
			t.Errorf("batch %d: ids %v, want [%d]", i, b.ids, want[i])
		}
	}
}

// squares is an 8x3 embedding whose row i is (10i, 10i+1, 10i+2).
func squares() *tensor.Matrix {
	emb := tensor.New(8, 3)
	for i := 0; i < 8; i++ {
		for j := 0; j < 3; j++ {
			emb.Row(i)[j] = float64(i*10 + j)
		}
	}
	return emb
}

func TestGatherReusesBuffer(t *testing.T) {
	emb := squares()
	var buf tensor.BufOf[float64]
	defer buf.Release()
	ids := []int{6, 0, 4}
	x := Gather(emb, ids, &buf)
	for i, v := range ids {
		for j := 0; j < 3; j++ {
			if x.Row(i)[j] != float64(v*10+j) {
				t.Fatalf("gather mismatch at row %d col %d", i, j)
			}
		}
	}
	// Under the race detector sync.Pool deliberately drops a fraction of
	// Puts, so allow a few rounds before declaring recycling broken.
	recycled := false
	for i := 0; i < 50 && !recycled; i++ {
		next := Gather(emb, ids[:2], &buf)
		recycled = next == x
		x = next
	}
	if !recycled {
		t.Error("gather buffer not recycled between batches")
	}
}

func TestRunGatherRowsSpanAndCounter(t *testing.T) {
	// A precomputed-embedding step gathers its own rows: each batch's rows
	// are right, every gather is a train.gather span, and
	// train.rows_gathered counts every row.
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	emb := squares()
	var buf tensor.BufOf[float64]
	defer buf.Release()
	var got []int
	spec := Spec{
		Source: NewBatches([]int{1, 3, 5}, 2),
		Step: func(ids []int) error {
			x := Gather(emb, ids, &buf)
			for i, v := range ids {
				if !slices.Equal(x.Row(i), emb.Row(v)) {
					t.Errorf("row for node %d gathered %v", v, x.Row(i))
				}
				got = append(got, v)
			}
			return nil
		},
		Validate: func() (float64, error) { return 0, nil },
	}
	if _, err := Run(Config{Epochs: 2, RNG: tensor.NewPCG(1)}, spec); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("gathered %d rows in 2 epochs, want 6", len(got))
	}
	var spans, spanRows int64
	for _, r := range tr.Snapshot() {
		if r.Name == "train.gather" {
			spans++
			spanRows += r.Count
		}
	}
	if spans != 4 || spanRows != 6 {
		t.Errorf("%d train.gather spans over %d rows, want 4 over 6", spans, spanRows)
	}
	if n := reg.Counter("train.rows_gathered").Value(); n != 6 {
		t.Errorf("train.rows_gathered = %d, want 6", n)
	}
}
