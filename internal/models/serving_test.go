package models

import (
	"errors"
	"testing"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// servingDataset is a small fixed task shared by the serving tests.
func servingDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Nodes: 300, Classes: 3, AvgDegree: 8, Homophily: 0.8,
		FeatureDim: 12, NoiseStd: 1.0, TrainFrac: 0.5, ValFrac: 0.2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func servingConfig() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Epochs = 8
	cfg.Patience = 0
	cfg.BatchSize = 64
	cfg.Hidden = 16
	cfg.Seed = 11
	return cfg
}

type servableTrainer interface {
	Trainer
	NodeScorer
	Restorer
}

func servableFamilies() map[string]func() servableTrainer {
	return map[string]func() servableTrainer{
		"sgc":   func() servableTrainer { m, _ := NewSGC(2); return m },
		"sign":  func() servableTrainer { m, _ := NewSIGN(2); return m },
		"ld2":   func() servableTrainer { m, _ := NewLD2(2); return m },
		"gamlp": func() servableTrainer { m, _ := NewGAMLP(2); return m },
		"appnp": func() servableTrainer { m, _ := NewAPPNP(6, 0.15); return m },
	}
}

// TestRestoreMatchesOfflinePredict trains each decoupled family at each
// numeric tier with checkpointing, restores a fresh instance from the newest snapshot, and
// requires (a) identical predictions and (b) Score output — full and
// chunked — bitwise-equal to the offline logits path.
func TestRestoreMatchesOfflinePredict(t *testing.T) {
	ds := servingDataset(t)
	for name, make := range servableFamilies() {
		for _, dtype := range []string{DTypeFloat64, DTypeFloat32} {
			t.Run(name+"/"+dtype, func(t *testing.T) {
				cfg := servingConfig()
				cfg.DType = dtype
				cfg.Checkpoint = train.CheckpointConfig{Dir: t.TempDir(), Every: 1}
				m := make()
				if _, err := m.Fit(ds, cfg); err != nil {
					t.Fatalf("fit: %v", err)
				}
				want, err := m.Predict(ds)
				if err != nil {
					t.Fatalf("predict: %v", err)
				}

				mgr, err := ckpt.NewManager(cfg.Checkpoint.Dir, 2)
				if err != nil {
					t.Fatal(err)
				}
				snap, _, err := mgr.Latest(RunFingerprint(m.Name(), ds, cfg))
				if err != nil {
					t.Fatalf("latest snapshot: %v", err)
				}
				if snap == nil {
					t.Fatal("no snapshot written")
				}

				r := make()
				if err := r.Restore(ds, cfg, snap); err != nil {
					t.Fatalf("restore: %v", err)
				}
				got, err := r.Predict(ds)
				if err != nil {
					t.Fatalf("restored predict: %v", err)
				}
				if !equalInts(want, got) {
					t.Fatalf("restored predictions differ from offline Predict")
				}

				if r.Nodes() != ds.G.N || r.Classes() != ds.NumClasses {
					t.Fatalf("Nodes/Classes = %d/%d, want %d/%d", r.Nodes(), r.Classes(), ds.G.N, ds.NumClasses)
				}

				// Score over everything at once, and in uneven chunks, must argmax
				// to the same predictions.
				idx := rangeIdx(ds.G.N)
				full := tensor.New(ds.G.N, ds.NumClasses)
				if err := r.Score(idx, full); err != nil {
					t.Fatalf("score: %v", err)
				}
				checkArgmax(t, full, want, "full Score")

				chunked := tensor.New(ds.G.N, ds.NumClasses)
				for lo := 0; lo < ds.G.N; lo += 17 {
					hi := lo + 17
					if hi > ds.G.N {
						hi = ds.G.N
					}
					out := tensor.New(hi-lo, ds.NumClasses)
					if err := r.Score(idx[lo:hi], out); err != nil {
						t.Fatalf("chunked score [%d,%d): %v", lo, hi, err)
					}
					copy(chunked.Data[lo*ds.NumClasses:hi*ds.NumClasses], out.Data)
				}
				for i := range full.Data {
					if full.Data[i] != chunked.Data[i] {
						t.Fatalf("chunked Score logits differ at %d: %v vs %v", i, full.Data[i], chunked.Data[i])
					}
				}

				// Out-of-range nodes and bad shapes fail loudly, not silently.
				if err := r.Score([]int{-1}, tensor.New(1, ds.NumClasses)); err == nil {
					t.Error("negative node id accepted")
				}
				if err := r.Score([]int{ds.G.N}, tensor.New(1, ds.NumClasses)); err == nil {
					t.Error("out-of-range node id accepted")
				}
				if err := r.Score([]int{0}, tensor.New(2, ds.NumClasses)); err == nil {
					t.Error("wrong-shape destination accepted")
				}
			})
		}
	}
}

// TestRestoreRejectsFingerprintMismatch proves a snapshot from a different
// run configuration cannot be swapped in: Restore surfaces
// ckpt.ErrFingerprint.
func TestRestoreRejectsFingerprintMismatch(t *testing.T) {
	ds := servingDataset(t)
	cfg := servingConfig()
	cfg.Checkpoint = train.CheckpointConfig{Dir: t.TempDir(), Every: 1}
	m, err := NewSIGN(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(ds, cfg); err != nil {
		t.Fatal(err)
	}
	mgr, err := ckpt.NewManager(cfg.Checkpoint.Dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := mgr.Latest(RunFingerprint(m.Name(), ds, cfg))
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Hidden = cfg.Hidden * 2
	r, err := NewSIGN(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(ds, other, snap); !errors.Is(err, ckpt.ErrFingerprint) {
		t.Fatalf("restore with changed config: err = %v, want ckpt.ErrFingerprint", err)
	}
}

// TestPredictCacheInvalidatedOnRefit retrains a model and requires Predict
// to reflect the new weights, proving the cached logits are dropped on
// refit rather than served stale.
func TestPredictCacheInvalidatedOnRefit(t *testing.T) {
	ds := servingDataset(t)
	cfg1 := servingConfig()
	cfg2 := servingConfig()
	cfg2.Seed = 99
	cfg2.Epochs = 3

	m, err := NewSGC(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(ds, cfg1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(ds); err != nil { // populate the cache
		t.Fatal(err)
	}
	if _, err := m.Fit(ds, cfg2); err != nil {
		t.Fatal(err)
	}
	got, err := m.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := NewSGC(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Fit(ds, cfg2); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(want, got) {
		t.Fatal("refit model served stale cached predictions")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkArgmax(t *testing.T, logits *tensor.Matrix, want []int, label string) {
	t.Helper()
	got := make([]int, logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		got[i] = best
	}
	if !equalInts(want, got) {
		t.Fatalf("%s argmax differs from Predict", label)
	}
}
