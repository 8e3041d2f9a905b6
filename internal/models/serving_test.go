package models

import (
	"errors"
	"strings"
	"testing"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
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

// TestScoreBeforeFitNamesFamily: a NodeScorer that holds no trained state
// serves nothing — Score and Predict error, naming the family, and Nodes
// and Classes are 0.
func TestScoreBeforeFitNamesFamily(t *testing.T) {
	ds := servingDataset(t)
	for name, make := range servableFamilies() {
		t.Run(name, func(t *testing.T) {
			m := make()
			family, _, _ := strings.Cut(m.Name(), "-")
			named := func(err error) bool {
				return err != nil && strings.Contains(err.Error(), family) && strings.Contains(err.Error(), "before Fit")
			}
			if err := m.Score([]int{0}, tensor.New(1, ds.NumClasses)); !named(err) {
				t.Errorf("Score before Fit: err = %v, want \"before Fit\" naming %s", err, family)
			}
			if _, err := m.Predict(ds); !named(err) {
				t.Errorf("Predict before Fit: err = %v, want \"before Fit\" naming %s", err, family)
			}
			if m.Nodes() != 0 || m.Classes() != 0 {
				t.Errorf("Nodes/Classes before Fit = %d/%d, want 0/0", m.Nodes(), m.Classes())
			}
		})
	}
}

// TestRestoreRejectsFingerprintMismatch proves a snapshot cannot be
// restored against a run that differs from the one that wrote it, in the
// config, in the model's own parameters, or in the dataset's content at
// identical shape: Restore surfaces ckpt.ErrFingerprint. Each change
// replaces what it edits, so ds itself is never written.
func TestRestoreRejectsFingerprintMismatch(t *testing.T) {
	ds := servingDataset(t)
	cfg := servingConfig()
	sign := func() servableTrainer { m, _ := NewSIGN(2); return m }
	appnp := func(alpha float64) func() servableTrainer {
		return func() servableTrainer { m, _ := NewAPPNP(6, alpha); return m }
	}
	for _, c := range []struct {
		name              string
		trained, restored func() servableTrainer
		change            func(ds *dataset.Dataset, cfg *TrainConfig)
	}{
		{"hidden x2", sign, sign, func(_ *dataset.Dataset, cfg *TrainConfig) { cfg.Hidden *= 2 }},
		{"edges rewired, same N and m", sign, sign, func(ds *dataset.Dataset, _ *TrainConfig) {
			ds.G = graph.ErdosRenyi(ds.G.N, ds.G.NumEdges()/2, tensor.NewRand(5))
		}},
		{"one feature value changed", sign, sign, func(ds *dataset.Dataset, _ *TrainConfig) {
			ds.X = ds.X.Clone()
			ds.X.Data[7] += 0.5
		}},
		{"two labels swapped", sign, sign, func(ds *dataset.Dataset, _ *TrainConfig) {
			ds.Labels = append([]int(nil), ds.Labels...)
			j := 1
			for ds.Labels[j] == ds.Labels[0] {
				j++
			}
			ds.Labels[0], ds.Labels[j] = ds.Labels[j], ds.Labels[0]
		}},
		{"train/val split permuted", sign, sign, func(ds *dataset.Dataset, _ *TrainConfig) {
			ds.TrainIdx = append([]int(nil), ds.TrainIdx...)
			ds.ValIdx = append([]int(nil), ds.ValIdx...)
			ds.TrainIdx[0], ds.ValIdx[0] = ds.ValIdx[0], ds.TrainIdx[0]
		}},
		{"APPNP alpha 0.1 restored as 0.15", appnp(0.1), appnp(0.15), func(*dataset.Dataset, *TrainConfig) {}},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := cfg
			run.Checkpoint = train.CheckpointConfig{Dir: t.TempDir(), Every: 1}
			if _, err := c.trained().Fit(ds, run); err != nil {
				t.Fatal(err)
			}
			mgr, err := ckpt.NewManager(run.Checkpoint.Dir, 2)
			if err != nil {
				t.Fatal(err)
			}
			snap, _, err := mgr.Newest()
			if err != nil || snap == nil {
				t.Fatalf("no snapshot: %v", err)
			}
			other, otherCfg := *ds, cfg
			c.change(&other, &otherCfg)
			if other.G.N != ds.G.N || other.G.NumEdges() != ds.G.NumEdges() {
				t.Fatalf("changed graph is %d nodes / %d arcs, want %d / %d",
					other.G.N, other.G.NumEdges(), ds.G.N, ds.G.NumEdges())
			}
			if err := c.restored().Restore(&other, otherCfg, snap); !errors.Is(err, ckpt.ErrFingerprint) {
				t.Fatalf("restore: err = %v, want ckpt.ErrFingerprint", err)
			}
		})
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
