package models

import (
	"context"
	"slices"
	"strings"
	"testing"

	"scalegnn/internal/dataset"
	"scalegnn/internal/train"
)

// cancelAfterBatches cancels a context once n batch steps have completed,
// interrupting a Fit mid-run the way a deadline or SIGTERM would.
type cancelAfterBatches struct {
	n, seen int
	cancel  context.CancelFunc
}

func (c *cancelAfterBatches) OnBatch(train.BatchEnd) {
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
}
func (c *cancelAfterBatches) OnEpoch(train.EpochEnd) {}

// TestResumeBitwiseIdenticalAcrossFamilies is the acceptance-criteria
// check in miniature: for a full-batch model (GCN), a sampled mini-batch
// model (GraphSAGE, which also draws RNG during validation), and a
// decoupled head (SGC), a run that is interrupted mid-training and
// resumed from its durable snapshot must produce predictions bitwise
// identical to the uninterrupted run.
func TestResumeBitwiseIdenticalAcrossFamilies(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Nodes: 200, Classes: 3, AvgDegree: 8, Homophily: 0.85,
		FeatureDim: 12, NoiseStd: 1.0, TrainFrac: 0.5, ValFrac: 0.2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultTrainConfig()
	base.Epochs = 8
	base.Hidden = 16
	base.BatchSize = 64
	base.Seed = 9

	cases := []struct {
		name        string
		make        func() (Trainer, error)
		cancelAfter int // batch steps before cancellation (lands mid-epoch)
	}{
		{"gcn", func() (Trainer, error) { return NewGCN(2) }, 5},
		{"sage", func() (Trainer, error) { return NewGraphSAGE(2, 5) }, 5},
		{"sgc", func() (Trainer, error) { return NewSGC(2) }, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full, err := tc.make()
			if err != nil {
				t.Fatal(err)
			}
			fullRep, err := full.Fit(ds, base)
			if err != nil {
				t.Fatal(err)
			}
			fullPred, err := full.Predict(ds)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			cfg := base
			cfg.Checkpoint = train.CheckpointConfig{Dir: dir, Every: 1, KeepLast: 3}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg.Ctx = ctx
			cfg.Hooks = []train.Hook{&cancelAfterBatches{n: tc.cancelAfter, cancel: cancel}}
			interrupted, err := tc.make()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := interrupted.Fit(ds, cfg); err == nil {
				t.Fatal("interrupted Fit returned nil error")
			} else if !strings.Contains(err.Error(), "cancelled") {
				t.Fatalf("interrupted Fit: %v", err)
			}

			cfg = base
			cfg.Checkpoint = train.CheckpointConfig{Dir: dir, Every: 1, KeepLast: 3, Resume: true}
			resumed, err := tc.make()
			if err != nil {
				t.Fatal(err)
			}
			resRep, err := resumed.Fit(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			resPred, err := resumed.Predict(ds)
			if err != nil {
				t.Fatal(err)
			}

			if len(resPred) != len(fullPred) {
				t.Fatalf("prediction length %d != %d", len(resPred), len(fullPred))
			}
			for i := range fullPred {
				if resPred[i] != fullPred[i] {
					t.Fatalf("node %d: resumed predicts %d, uninterrupted %d (not bitwise identical)",
						i, resPred[i], fullPred[i])
				}
			}
			if resRep.TrainAcc != fullRep.TrainAcc || resRep.ValAcc != fullRep.ValAcc ||
				resRep.TestAcc != fullRep.TestAcc || resRep.TestF1 != fullRep.TestF1 {
				t.Fatalf("resumed report %+v != uninterrupted %+v", resRep, fullRep)
			}
		})
	}
}

// TestResumeRejectsChangedConfig: changing a fingerprinted hyperparameter
// between legs must fail the resume instead of silently mixing runs.
func TestResumeRejectsChangedConfig(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Nodes: 120, Classes: 3, AvgDegree: 6, Homophily: 0.8,
		FeatureDim: 8, NoiseStd: 1.0, TrainFrac: 0.5, ValFrac: 0.2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.Hidden = 8
	cfg.Seed = 4
	dir := t.TempDir()
	cfg.Checkpoint = train.CheckpointConfig{Dir: dir}
	m, err := NewGCN(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(ds, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.LR = cfg.LR * 2 // fingerprinted change
	cfg.Checkpoint.Resume = true
	if _, err := m.Fit(ds, cfg); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("resume with changed LR: got %v, want fingerprint mismatch", err)
	}
}

// TestFitInstallsStateOnlyOnSuccess: a cancelled or failed Fit must leave
// the model answering from whatever it held before — nothing on a fresh
// model, the previous run's weights on a refit — never from the
// half-trained network of the run that failed. It holds for all ten
// families, because all ten fit through atTier.
func TestFitInstallsStateOnlyOnSuccess(t *testing.T) {
	ds := servingDataset(t)
	cases := map[string]func() (Trainer, error){
		"gcn":         func() (Trainer, error) { return NewGCN(2) },
		"sage":        func() (Trainer, error) { return NewGraphSAGE(2, 5) },
		"clustergcn":  func() (Trainer, error) { return NewClusterGCN(2, 4) },
		"sgc":         func() (Trainer, error) { return NewSGC(2) },
		"sign":        func() (Trainer, error) { return NewSIGN(2) },
		"appnp":       func() (Trainer, error) { return NewAPPNP(6, 0.15) },
		"gamlp":       func() (Trainer, error) { return NewGAMLP(2) },
		"ld2":         func() (Trainer, error) { return NewLD2(2) },
		"implicit":    func() (Trainer, error) { return NewImplicitNet(0.8, nil) },
		"transformer": func() (Trainer, error) { return NewGraphTransformer(4) },
	}
	// spdBias is the transformer's learned bias, which a cancelled refit
	// must not touch either; nil for the other families.
	spdBias := func(m Trainer) []float64 {
		if gt, ok := m.(*GraphTransformer); ok {
			return gt.SPDBias()
		}
		return nil
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			m, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			cancelledFit := func() {
				t.Helper()
				cfg := servingConfig()
				cfg.Seed = 99 // a different trajectory from the good fit
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cfg.Ctx = ctx
				cfg.Hooks = []train.Hook{&cancelAfterBatches{n: 3, cancel: cancel}}
				if _, err := m.Fit(ds, cfg); err == nil || !strings.Contains(err.Error(), "cancelled") {
					t.Fatalf("cancelled Fit: err = %v", err)
				}
			}

			cancelledFit()
			if _, err := m.Predict(ds); err == nil || !strings.Contains(err.Error(), "before Fit") {
				t.Fatalf("Predict after a cancelled first Fit: err = %v, want \"before Fit\"", err)
			}

			if _, err := m.Fit(ds, servingConfig()); err != nil {
				t.Fatal(err)
			}
			first, err := m.Predict(ds)
			if err != nil {
				t.Fatal(err)
			}
			want, wantBias := PredictionFingerprint(first), spdBias(m)

			cancelledFit()
			after, err := m.Predict(ds)
			if err != nil {
				t.Fatal(err)
			}
			if got := PredictionFingerprint(after); got != want {
				t.Fatalf("cancelled refit changed predictions: %016x, want the first fit's %016x", got, want)
			}
			if got := spdBias(m); !slices.Equal(got, wantBias) {
				t.Fatalf("cancelled refit changed the SPD bias: %v, want %v", got, wantBias)
			}
		})
	}
}
