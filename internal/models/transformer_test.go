package models

import (
	"math"
	"testing"

	"scalegnn/internal/dataset"
	"scalegnn/internal/hublabel"
	"scalegnn/internal/nn"
	"scalegnn/internal/tensor"
)

func TestGraphTransformerLearns(t *testing.T) {
	ds := smallTask(t)
	m, err := NewGraphTransformer(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.Epochs = 80
	cfg.Hidden = 32
	cfg.BatchSize = 64
	rep, err := m.Fit(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestAcc < 0.6 {
		t.Errorf("transformer test acc %.3f", rep.TestAcc)
	}
	if rep.Precompute <= 0 {
		t.Error("hub-label precompute not reported")
	}
	pred, err := m.Predict(ds)
	if err != nil || len(pred) != ds.G.N {
		t.Fatalf("Predict: %v, %d preds", err, len(pred))
	}
	if len(m.SPDBias()) != 6 {
		t.Error("SPD bias length wrong")
	}
}

func TestGraphTransformerValidation(t *testing.T) {
	if _, err := NewGraphTransformer(1); err == nil {
		t.Error("1 bucket should error")
	}
	ds := smallTask(t)
	m, _ := NewGraphTransformer(4)
	if _, err := m.Predict(ds); err == nil {
		t.Error("Predict before Fit should error")
	}
	if m.SPDBias() != nil {
		t.Error("bias before Fit should be nil")
	}
}

// TestAttentionGradients verifies the manual attention backward pass
// against finite differences on every parameter.
func TestAttentionGradients(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Nodes: 40, Classes: 3, AvgDegree: 6, Homophily: 0.8,
		FeatureDim: 5, NoiseStd: 0.5, TrainFrac: 0.8, ValFrac: 0.1, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraphTransformer(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRand(17)
	m := &gtState{buckets: g.Buckets, hidden: 6}
	m.wq = nn.NewParam("wq", tensor.GlorotUniform(5, 6, rng))
	m.wk = nn.NewParam("wk", tensor.GlorotUniform(5, 6, rng))
	m.wv = nn.NewParam("wv", tensor.GlorotUniform(5, 6, rng))
	m.ws = nn.NewParam("ws", tensor.GlorotUniform(5, 6, rng))
	m.wo = nn.NewParam("wo", tensor.GlorotUniform(6, 3, rng))
	m.bias = nn.NewParam("bias", tensor.RandNormal(1, 4, 0.1, rng))
	ix, err := hublabel.Build(ds.G)
	if err != nil {
		t.Fatal(err)
	}
	m.index = ix

	idx := []int{0, 3, 7, 11, 19, 22}
	labels := dataset.LabelsAt(ds.Labels, idx)
	loss := func() float64 {
		_, logits, err := m.batchForward(ds, idx)
		if err != nil {
			t.Fatal(err)
		}
		l, _ := nn.SoftmaxCrossEntropy(logits, labels)
		return l
	}
	st, logits, err := m.batchForward(ds, idx)
	if err != nil {
		t.Fatal(err)
	}
	_, gLogits := nn.SoftmaxCrossEntropy(logits, labels)
	m.backwardBatch(st, gLogits)

	const eps = 1e-6
	for _, p := range m.params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := loss()
			p.Value.Data[i] = orig - eps
			lm := loss()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-p.Grad.Data[i]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, p.Grad.Data[i], numeric)
			}
		}
	}
}

func TestBucketOf(t *testing.T) {
	m := &gtState{buckets: 4}
	cases := map[int]int{0: 0, 1: 1, 3: 3, 4: 3, 100: 3, -1: 3, hublabel.Infinity: 3}
	for d, want := range cases {
		if got := m.bucketOf(d); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", d, got, want)
		}
	}
}
