package models

import (
	"strings"
	"testing"

	"scalegnn/internal/metrics"
)

func TestNAIPredictBasics(t *testing.T) {
	ds := smallTask(t)
	m, err := NewSGC(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	if _, err := m.Fit(ds, cfg); err != nil {
		t.Fatal(err)
	}
	hops := HopEmbeddings(ds, 3)
	res, err := NAIPredict(m, hops, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pred) != ds.G.N || len(res.HopUsed) != ds.G.N {
		t.Fatal("result length mismatch")
	}
	for i, h := range res.HopUsed {
		if h < 0 || h > 3 {
			t.Fatalf("node %d exited at hop %d", i, h)
		}
	}
	if res.FullHops != 3 {
		t.Errorf("FullHops = %d", res.FullHops)
	}
	// Adaptive inference must save some propagation on an easy task.
	if res.AvgHops >= 3 {
		t.Errorf("no early exits: avg hops %v", res.AvgHops)
	}
	if res.Speedup() <= 1 {
		t.Errorf("speedup %v", res.Speedup())
	}
	// Accuracy must stay close to full propagation.
	fullPred, err := m.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	labels := ds.Labels
	fullAcc := metrics.Accuracy(sel(fullPred, ds.TestIdx), sel(labels, ds.TestIdx))
	naiAcc := metrics.Accuracy(sel(res.Pred, ds.TestIdx), sel(labels, ds.TestIdx))
	if naiAcc < fullAcc-0.05 {
		t.Errorf("NAI accuracy %.3f far below full %.3f", naiAcc, fullAcc)
	}
}

func sel(xs []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, v := range idx {
		out[i] = xs[v]
	}
	return out
}

func TestNAIThresholdTradeoff(t *testing.T) {
	// Lower thresholds must exit earlier (fewer average hops).
	ds := smallTask(t)
	m, err := NewSGC(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(ds, quickCfg()); err != nil {
		t.Fatal(err)
	}
	hops := HopEmbeddings(ds, 3)
	loose, err := NAIPredict(m, hops, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := NAIPredict(m, hops, 0.999, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loose.AvgHops > strict.AvgHops {
		t.Errorf("loose threshold used %v hops, strict %v", loose.AvgHops, strict.AvgHops)
	}
}

func TestNAIValidation(t *testing.T) {
	ds := smallTask(t)
	m, _ := NewSGC(2)
	hops := HopEmbeddings(ds, 2)
	if _, err := NAIPredict(m, hops, 0.9, 0); err == nil {
		t.Error("NAI before Fit should error")
	}
	if _, err := m.Fit(ds, quickCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := NAIPredict(m, nil, 0.9, 0); err == nil {
		t.Error("no hops should error")
	}
	if _, err := NAIPredict(m, hops, 0, 0); err == nil {
		t.Error("threshold 0 should error")
	}
	if _, err := NAIPredict(m, hops, 1.5, 0); err == nil {
		t.Error("threshold > 1 should error")
	}
	if _, err := NAIPredict(m, hops, 0.9, 5); err == nil {
		t.Error("minHops out of range should error")
	}
	m32, _ := NewSGC(2)
	cfg32 := quickCfg()
	cfg32.DType = DTypeFloat32
	if _, err := m32.Fit(ds, cfg32); err != nil {
		t.Fatal(err)
	}
	if _, err := NAIPredict(m32, hops, 0.9, 0); err == nil || !strings.Contains(err.Error(), "float32") {
		t.Errorf("float32 head on float64 hops: err = %v, want one naming the tier mismatch", err)
	}
}
