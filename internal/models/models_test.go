package models

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"scalegnn/internal/dataset"
	"scalegnn/internal/nn"
	"scalegnn/internal/obs"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// smallTask returns a small, easy homophilous task every model should ace.
func smallTask(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Nodes: 600, Classes: 3, AvgDegree: 10, Homophily: 0.85,
		FeatureDim: 16, NoiseStd: 1.0, TrainFrac: 0.5, ValFrac: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// heteroTask returns a heterophilous task (low-pass hostile).
func heteroTask(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Nodes: 600, Classes: 3, AvgDegree: 10, Homophily: 0.1,
		FeatureDim: 16, NoiseStd: 1.5, TrainFrac: 0.5, ValFrac: 0.2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func quickCfg() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Epochs = 60
	cfg.Patience = 20
	return cfg
}

// fitAndCheck trains a model and asserts it clearly beats chance (1/3).
func fitAndCheck(t *testing.T, m Trainer, ds *dataset.Dataset, minAcc float64) *Report {
	t.Helper()
	rep, err := m.Fit(ds, quickCfg())
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	if rep.TestAcc < minAcc {
		t.Errorf("%s: test accuracy %.3f below %.3f", m.Name(), rep.TestAcc, minAcc)
	}
	if rep.Epochs == 0 || rep.EpochTime <= 0 {
		t.Errorf("%s: bad timing report %+v", m.Name(), rep)
	}
	if rep.PeakFloats <= 0 {
		t.Errorf("%s: peak floats not reported", m.Name())
	}
	pred, err := m.Predict(ds)
	if err != nil {
		t.Fatalf("%s: Predict: %v", m.Name(), err)
	}
	if len(pred) != ds.G.N {
		t.Errorf("%s: Predict returned %d values", m.Name(), len(pred))
	}
	return rep
}

func TestGCNLearns(t *testing.T) {
	ds := smallTask(t)
	m, err := NewGCN(2)
	if err != nil {
		t.Fatal(err)
	}
	fitAndCheck(t, m, ds, 0.7)
}

func TestSGCLearns(t *testing.T) {
	ds := smallTask(t)
	m, err := NewSGC(2)
	if err != nil {
		t.Fatal(err)
	}
	rep := fitAndCheck(t, m, ds, 0.7)
	if rep.Precompute <= 0 {
		t.Error("SGC should report precompute time")
	}
}

func TestSIGNLearns(t *testing.T) {
	ds := smallTask(t)
	m, err := NewSIGN(3)
	if err != nil {
		t.Fatal(err)
	}
	fitAndCheck(t, m, ds, 0.7)
}

func TestAPPNPLearns(t *testing.T) {
	ds := smallTask(t)
	m, err := NewAPPNP(8, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	fitAndCheck(t, m, ds, 0.7)
}

func TestGAMLPLearns(t *testing.T) {
	ds := smallTask(t)
	m, err := NewGAMLP(3)
	if err != nil {
		t.Fatal(err)
	}
	fitAndCheck(t, m, ds, 0.7)
	// The trained state keeps the combined embedding Σ_k a_k H_k, not θ, so
	// the hop softmax is checked on raw logits far apart.
	att := attention(nn.NewParam("theta", tensor.FromSlice(1, 4, []float64{-3, 0, 2.5, 40})))
	var sum float64
	for _, a := range att {
		if a < 0 {
			t.Error("negative attention weight")
		}
		sum += a
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("attention sums to %v", sum)
	}
}

func TestLD2Learns(t *testing.T) {
	ds := smallTask(t)
	m, err := NewLD2(2)
	if err != nil {
		t.Fatal(err)
	}
	fitAndCheck(t, m, ds, 0.7)
}

func TestSAGELearns(t *testing.T) {
	ds := smallTask(t)
	m, err := NewGraphSAGE(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	fitAndCheck(t, m, ds, 0.65)
}

func TestClusterGCNLearns(t *testing.T) {
	ds := smallTask(t)
	m, err := NewClusterGCN(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	fitAndCheck(t, m, ds, 0.65)
}

func TestImplicitLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("implicit fixed-point training is minutes-slow under -race; run without -short")
	}
	ds := smallTask(t)
	m, err := NewImplicitNet(0.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.Epochs = 40
	rep, err := m.Fit(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestAcc < 0.6 {
		t.Errorf("implicit test accuracy %.3f", rep.TestAcc)
	}
}

// TestImplicitSolvesEachEquilibriumOnce pins the SpMMs of a 3-epoch
// ImplicitNet fit per training step and per validation pass. A step after
// a pass trains on that pass's equilibria and propagates only for its
// adjoint solves and ∂L/∂W; one that solved its forward again would also
// count the pass before it. The final forward solves again, and matches
// the last pass call for call. Iteration counts follow the float bits, so
// the pins bind amd64 only, like the golden fingerprints.
func TestImplicitSolvesEachEquilibriumOnce(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("counts were captured on amd64, not %s", runtime.GOARCH)
	}
	ds := smallTask(t)
	for _, tc := range []struct {
		scales []int
		want   []int // step, pass, step, pass, step, pass, final forward
	}{
		{nil, []int{23, 14, 10, 15, 11, 27, 27}},
		{[]int{1, 2}, []int{67, 42, 25, 51, 30, 76, 76}},
	} {
		rec := &widthRecorder{segs: [][]int{nil}}
		for u := range ds.G.N {
			rec.rows = append(rec.rows, int32(u))
		}
		ds.G.SetApplyHook(rec)
		m, err := NewImplicitNet(0.8, tc.scales)
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickCfg()
		cfg.Epochs, cfg.Hooks = 3, []train.Hook{rec}
		_, err = m.Fit(ds, cfg)
		ds.G.SetApplyHook(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, seg := range rec.segs {
			got = append(got, len(seg))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("scales %v: SpMMs per step/pass %v, want %v", tc.scales, got, tc.want)
		}
	}
}

// TestLD2BeatsSGCOnHeterophily is E5's core claim at test scale: on a
// heterophilous graph the multi-filter model must beat the pure low-pass
// model.
func TestLD2BeatsSGCOnHeterophily(t *testing.T) {
	ds := heteroTask(t)
	sgc, err := NewSGC(2)
	if err != nil {
		t.Fatal(err)
	}
	ld2, err := NewLD2(2)
	if err != nil {
		t.Fatal(err)
	}
	repSGC, err := sgc.Fit(ds, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	repLD2, err := ld2.Fit(ds, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if repLD2.TestAcc <= repSGC.TestAcc {
		t.Errorf("LD2 %.3f not above SGC %.3f on heterophilous graph",
			repLD2.TestAcc, repSGC.TestAcc)
	}
}

// TestDecoupledPeakMemoryBelowGCN is E2's memory claim: mini-batch
// decoupled training must hold far fewer resident floats than full-batch
// GCN on the same task.
func TestDecoupledPeakMemoryBelowGCN(t *testing.T) {
	ds := smallTask(t)
	gcn, _ := NewGCN(2)
	sgc, _ := NewSGC(2)
	cfg := quickCfg()
	cfg.Epochs = 5
	cfg.Patience = 0
	cfg.BatchSize = 64
	repG, err := gcn.Fit(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repS, err := sgc.Fit(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if repS.PeakFloats >= repG.PeakFloats {
		t.Errorf("SGC peak floats %d not below GCN %d", repS.PeakFloats, repG.PeakFloats)
	}
}

// TestWorkspacePoolHitRateSteadyState pins the allocation-free hot-path
// claim with the new pool counters: after the first epoch warms the
// workspace, steady-state GCN training must serve most Get calls from the
// pool rather than allocating.
func TestWorkspacePoolHitRateSteadyState(t *testing.T) {
	ds := smallTask(t)
	reg := obs.NewRegistry()
	tensor.EnablePoolMetrics(reg)
	defer tensor.EnablePoolMetrics(nil)

	m, err := NewGCN(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.Epochs = 10
	cfg.Patience = 0
	if _, err := m.Fit(ds, cfg); err != nil {
		t.Fatal(err)
	}

	hits := float64(reg.Counter("tensor.pool_hits").Value())
	misses := float64(reg.Counter("tensor.pool_misses").Value())
	if hits <= 0 {
		t.Fatalf("no pool hits recorded (misses=%v) — counters not wired or pool never reused", misses)
	}
	if rate := hits / (hits + misses); rate < 0.5 {
		t.Errorf("pool hit rate %.3f (hits=%v misses=%v); steady-state training should mostly reuse buffers",
			rate, hits, misses)
	}
}

// TestFingerprintParityWithTracing pins the observability determinism
// contract: observation never touches RNG or model state, so a traced +
// metered run must produce bitwise-identical predictions and accuracies to
// a bare run with the same seed.
func TestFingerprintParityWithTracing(t *testing.T) {
	ds := smallTask(t)
	cfg := quickCfg()
	cfg.Epochs = 8
	cfg.Patience = 0
	cfg.BatchSize = 64

	run := func() ([]int, float64) {
		m, err := NewSGC(2)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Fit(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := m.Predict(ds)
		if err != nil {
			t.Fatal(err)
		}
		return pred, rep.TestAcc
	}

	barePred, bareAcc := run()

	reg := obs.NewRegistry()
	tensor.EnablePoolMetrics(reg)
	defer tensor.EnablePoolMetrics(nil)
	train.EnableMetrics(reg)
	defer train.EnableMetrics(nil)
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)
	tracedPred, tracedAcc := run()

	if tracedAcc != bareAcc {
		t.Errorf("test accuracy differs under tracing: %v vs %v", tracedAcc, bareAcc)
	}
	for i := range barePred {
		if barePred[i] != tracedPred[i] {
			t.Fatalf("prediction %d differs under tracing: %d vs %d", i, barePred[i], tracedPred[i])
		}
	}
	if tr.Len() == 0 {
		t.Error("traced run recorded no spans — instrumentation not active")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewGCN(0); err == nil {
		t.Error("GCN 0 layers")
	}
	if _, err := NewSGC(0); err == nil {
		t.Error("SGC K=0")
	}
	if _, err := NewSIGN(0); err == nil {
		t.Error("SIGN K=0")
	}
	if _, err := NewAPPNP(0, 0.1); err == nil {
		t.Error("APPNP K=0")
	}
	if _, err := NewAPPNP(5, 0); err == nil {
		t.Error("APPNP alpha=0")
	}
	if _, err := NewGAMLP(0); err == nil {
		t.Error("GAMLP K=0")
	}
	if _, err := NewLD2(0); err == nil {
		t.Error("LD2 hops=0")
	}
	if _, err := NewGraphSAGE(0, 3); err == nil {
		t.Error("SAGE 0 layers")
	}
	if _, err := NewGraphSAGE(2, 0); err == nil {
		t.Error("SAGE fanout 0")
	}
	if _, err := NewClusterGCN(0, 2); err == nil {
		t.Error("ClusterGCN 0 layers")
	}
	if _, err := NewImplicitNet(0, nil); err == nil {
		t.Error("ImplicitNet gamma=0")
	}
	if _, err := NewImplicitNet(0.5, []int{0}); err == nil {
		t.Error("ImplicitNet scale 0")
	}
}

// TestNewRejectsUnknownFamily: New builds every family by its command-line
// name, and a typo names itself rather than building something else.
func TestNewRejectsUnknownFamily(t *testing.T) {
	for _, name := range []string{"gcn", "sage", "clustergcn", "sgc", "appnp", "sign", "gamlp", "ld2", "implicit", "transformer"} {
		if _, err := New(name, 2); err != nil {
			t.Errorf("New(%q): %v", name, err)
		}
	}
	for _, name := range []string{"SGC", "", "gcnn"} {
		if _, err := New(name, 2); err == nil {
			t.Errorf("New(%q) accepted an unknown family", name)
		}
	}
}

func TestPredictBeforeFitErrors(t *testing.T) {
	ds := smallTask(t)
	for _, m := range []Trainer{
		mustGCN(t), mustSGC(t), mustTrainer(NewSIGN(2)), mustTrainer(NewAPPNP(4, 0.2)),
		mustTrainer(NewGAMLP(2)), mustTrainer(NewLD2(2)), mustTrainer(NewGraphSAGE(2, 3)),
		mustTrainer(NewClusterGCN(2, 2)), mustTrainer(NewImplicitNet(0.5, nil)),
	} {
		if _, err := m.Predict(ds); err == nil {
			t.Errorf("%s: Predict before Fit should error", m.Name())
		}
	}
}

func mustGCN(t *testing.T) Trainer {
	t.Helper()
	m, err := NewGCN(2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustSGC(t *testing.T) Trainer {
	t.Helper()
	m, err := NewSGC(2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustTrainer[T Trainer](m T, err error) Trainer {
	if err != nil {
		panic(err)
	}
	return m
}

func TestTrainConfigValidation(t *testing.T) {
	ds := smallTask(t)
	m, _ := NewSGC(2)
	bad := DefaultTrainConfig()
	bad.Epochs = 0
	if _, err := m.Fit(ds, bad); err == nil {
		t.Error("epochs=0 should error")
	}
	bad = DefaultTrainConfig()
	bad.LR = 0
	if _, err := m.Fit(ds, bad); err == nil {
		t.Error("lr=0 should error")
	}
	bad = DefaultTrainConfig()
	bad.Hidden = 0
	gcn, _ := NewGCN(1)
	if _, err := gcn.Fit(ds, bad); err == nil {
		t.Error("hidden=0 should error")
	}
}

// countBatches is a train.Hook that counts the batches a run trains.
type countBatches struct{ n int }

func (c *countBatches) OnBatch(train.BatchEnd) { c.n++ }
func (c *countBatches) OnEpoch(train.EpochEnd) {}

// TestTrainConfigRejectsDropoutAndLR: a dropout outside [0, 1) or a
// learning rate that is not positive, NaN included, is a config error
// before any batch trains. Dropout 1 used to panic inside Fit; NaN and
// negative dropout trained silently with none, and NaN passed the
// learning-rate check.
func TestTrainConfigRejectsDropoutAndLR(t *testing.T) {
	ds := smallTask(t)
	cases := []struct {
		name string
		edit func(*TrainConfig)
		ok   bool
	}{
		{"defaults", func(*TrainConfig) {}, true},
		{"dropout=0", func(c *TrainConfig) { c.Dropout = 0 }, true},
		{"dropout=1", func(c *TrainConfig) { c.Dropout = 1 }, false},
		{"dropout=1.5", func(c *TrainConfig) { c.Dropout = 1.5 }, false},
		{"dropout=-0.3", func(c *TrainConfig) { c.Dropout = -0.3 }, false},
		{"dropout=NaN", func(c *TrainConfig) { c.Dropout = math.NaN() }, false},
		{"lr=NaN", func(c *TrainConfig) { c.LR = math.NaN() }, false},
		{"lr=0", func(c *TrainConfig) { c.LR = 0 }, false},
	}
	families := []func() Trainer{
		func() Trainer { return mustTrainer(NewSIGN(2)) },
		func() Trainer { return mustTrainer(NewGCN(2)) },
	}
	for _, tc := range cases {
		for _, build := range families {
			m := build()
			t.Run(tc.name+"/"+m.Name(), func(t *testing.T) {
				hook := &countBatches{}
				cfg := DefaultTrainConfig()
				cfg.Epochs = 1
				cfg.Hooks = []train.Hook{hook}
				tc.edit(&cfg)
				rep, err := m.Fit(ds, cfg)
				switch {
				case tc.ok && err != nil:
					t.Fatalf("Fit: %v", err)
				case tc.ok && hook.n == 0:
					t.Fatal("Fit accepted the config but trained no batch")
				case !tc.ok && err == nil:
					t.Fatal("Fit accepted the config")
				case !tc.ok && (rep != nil || hook.n != 0):
					t.Fatalf("Fit rejected the config after training %d batches", hook.n)
				}
			})
		}
	}
}

// TestRestoreBestValAccMatchesBestEpoch is the regression test for the
// final-vs-best weight bug: the legacy loops early-stopped but kept the
// weights of the last epoch, so the reported ValAcc could be worse than the
// best the run ever saw. With RestoreBest the post-training evaluation must
// reproduce the engine's recorded best validation accuracy. SGC is used
// because its validation path is deterministic (no sampling during eval).
func TestRestoreBestValAccMatchesBestEpoch(t *testing.T) {
	ds := smallTask(t)
	cfg := quickCfg()
	cfg.Epochs = 30
	cfg.Patience = 5
	cfg.BatchSize = 64
	cfg.RestoreBest = true
	m, err := NewSGC(2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Fit(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestEpoch < 0 || rep.BestVal < 0 {
		t.Fatalf("engine did not record a best epoch: %+v", rep)
	}
	if diff := rep.ValAcc - rep.BestVal; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("restored ValAcc %.17g != best-epoch val %.17g (best epoch %d of %d)",
			rep.ValAcc, rep.BestVal, rep.BestEpoch, rep.Epochs)
	}
	// Same run without restoration must early-stop past the best epoch —
	// otherwise this test isn't exercising the restore path at all.
	m2, err := NewSGC(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RestoreBest = false
	rep2, err := m2.Fit(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Epochs <= rep2.BestEpoch+1 {
		t.Fatalf("run ended at its best epoch (%d of %d); pick a harder config",
			rep2.BestEpoch, rep2.Epochs)
	}
}
