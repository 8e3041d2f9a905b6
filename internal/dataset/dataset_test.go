package dataset

import (
	"math"
	"testing"

	"scalegnn/internal/tensor"
)

func TestGenerateBasics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 500
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.G.N != 500 || ds.X.Rows != 500 || ds.X.Cols != cfg.FeatureDim {
		t.Fatalf("shapes: n=%d x=%dx%d", ds.G.N, ds.X.Rows, ds.X.Cols)
	}
	if len(ds.Labels) != 500 {
		t.Fatal("labels length")
	}
	for _, y := range ds.Labels {
		if y < 0 || y >= cfg.Classes {
			t.Fatalf("label %d out of range", y)
		}
	}
	// Splits partition all nodes.
	total := len(ds.TrainIdx) + len(ds.ValIdx) + len(ds.TestIdx)
	if total != 500 {
		t.Errorf("splits cover %d of 500", total)
	}
	seen := make(map[int]bool)
	for _, set := range [][]int{ds.TrainIdx, ds.ValIdx, ds.TestIdx} {
		for _, v := range set {
			if seen[v] {
				t.Fatalf("node %d in two splits", v)
			}
			seen[v] = true
		}
	}
}

func TestGenerateHomophilyControl(t *testing.T) {
	for _, h := range []float64{0.1, 0.9} {
		cfg := DefaultConfig()
		cfg.Nodes = 2000
		cfg.Homophily = h
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		measured := EdgeHomophily(ds.G, ds.Labels)
		if math.Abs(measured-h) > 0.2 {
			t.Errorf("requested h=%v, measured %v", h, measured)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 300
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.G.NumEdges() != b.G.NumEdges() {
		t.Error("same seed produced different graphs")
	}
	if !a.X.Equal(b.X, 0) {
		t.Error("same seed produced different features")
	}
	if a.ContentKey() != b.ContentKey() {
		t.Error("same seed produced different content keys")
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes = 1
	if _, err := Generate(cfg); err == nil {
		t.Error("1 class should error")
	}
	cfg = DefaultConfig()
	cfg.FeatureDim = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("0 features should error")
	}
	cfg = DefaultConfig()
	cfg.TrainFrac = 0.8
	cfg.ValFrac = 0.5
	if _, err := Generate(cfg); err == nil {
		t.Error("overlapping splits should error")
	}
}

func TestFeaturesClassSeparated(t *testing.T) {
	// With low noise, per-class feature means must be far apart relative to
	// within-class scatter.
	cfg := DefaultConfig()
	cfg.Nodes = 1000
	cfg.NoiseStd = 0.1
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	means := make([][]float64, cfg.Classes)
	counts := make([]float64, cfg.Classes)
	for i := range means {
		means[i] = make([]float64, cfg.FeatureDim)
	}
	for i, c := range ds.Labels {
		counts[c]++
		for j, v := range ds.X.Row(i) {
			means[c][j] += v
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= counts[c]
		}
	}
	// Any two class means should differ by ~sqrt(2) for random unit means.
	var d float64
	for j := range means[0] {
		diff := means[0][j] - means[1][j]
		d += diff * diff
	}
	if math.Sqrt(d) < 0.5 {
		t.Errorf("class means too close: %v", math.Sqrt(d))
	}
}

func TestSplitFractions(t *testing.T) {
	rng := tensor.NewRand(1)
	train, val, test := Split(100, 0.6, 0.2, rng)
	if len(train) != 60 || len(val) != 20 || len(test) != 20 {
		t.Errorf("split sizes %d/%d/%d", len(train), len(val), len(test))
	}
}

func TestLabelsAt(t *testing.T) {
	labels := []int{5, 6, 7, 8}
	got := LabelsAt(labels, []int{2, 0})
	if got[0] != 7 || got[1] != 5 {
		t.Errorf("LabelsAt = %v", got)
	}
}
