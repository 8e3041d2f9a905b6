package condense

import (
	"math"
	"testing"

	"scalegnn/internal/coarsen"
	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/metrics"
	"scalegnn/internal/models"
	"scalegnn/internal/spectral"
	"scalegnn/internal/tensor"
)

func modularGraph(t *testing.T) (*graph.CSR, []int) {
	t.Helper()
	g, labels, err := graph.SBM(graph.SBMConfig{
		Nodes: 1200, Blocks: 6, AvgDegree: 12, Homophily: 0.9,
	}, tensor.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	return g, labels
}

func TestCondenseBasics(t *testing.T) {
	g, _ := modularGraph(t)
	r, err := Condense(g, Config{TargetNodes: 60}, tensor.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Condensed.N != 60 {
		t.Fatalf("condensed n = %d, want 60", r.Condensed.N)
	}
	if len(r.Assign) != g.N {
		t.Fatal("assign length mismatch")
	}
	counts := make([]int, 60)
	for _, c := range r.Assign {
		if c < 0 || c >= 60 {
			t.Fatalf("assignment %d out of range", c)
		}
		counts[c]++
	}
	for c, cnt := range counts {
		if cnt == 0 {
			t.Errorf("condensed node %d is empty", c)
		}
	}
	if ratio := float64(len(r.Assign)) / float64(r.Condensed.N); ratio < 15 {
		t.Errorf("ratio %v, want 20", ratio)
	}
	if len(r.EigenValues) == 0 || r.EigenValues[0] < 0.9 {
		t.Errorf("top eigenvalue %v; Â's top eigenvalue should be ~1", r.EigenValues)
	}
}

func TestCondenseRecoversCommunities(t *testing.T) {
	// With target = block count, spectral clustering should align condensed
	// nodes with the planted blocks (high purity).
	g, labels := modularGraph(t)
	r, err := Condense(g, Config{TargetNodes: 6}, tensor.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	// Purity: for each condensed node, the majority block fraction.
	counts := make(map[int]map[int]int)
	sizes := make(map[int]int)
	for u, c := range r.Assign {
		if counts[c] == nil {
			counts[c] = make(map[int]int)
		}
		counts[c][labels[u]]++
		sizes[c]++
	}
	var weighted float64
	for c, blockCounts := range counts {
		best := 0
		for _, cnt := range blockCounts {
			if cnt > best {
				best = cnt
			}
		}
		weighted += float64(best) / float64(sizes[c]) * float64(sizes[c]) / float64(g.N)
	}
	if weighted < 0.8 {
		t.Errorf("cluster purity %.3f; spectral condensation failed to find blocks", weighted)
	}
}

func TestCondenseSpectralMatch(t *testing.T) {
	g, _ := modularGraph(t)
	r, err := Condense(g, Config{TargetNodes: 60}, tensor.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	// Mean relative error between the top-6 operator eigenvalues of the
	// original (matched by Condense) and of the condensed graph.
	const k = 6
	opC := graph.NewOperator(r.Condensed, graph.NormSymmetric, true)
	valsC, _, err := spectral.SubspaceIteration(opC, k, 150, tensor.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	var e float64
	for i := 0; i < k; i++ {
		e += math.Abs(r.EigenValues[i]-valsC[i]) / math.Abs(r.EigenValues[i]) / k
	}
	if e > 0.25 {
		t.Errorf("top-6 eigenvalue error %.3f; condensation should preserve the low spectrum", e)
	}
}

func TestCondensedTrainingTransfers(t *testing.T) {
	// Train SGC on the condensed graph, lift predictions, evaluate on the
	// original — accuracy must beat chance substantially.
	ds, err := dataset.Generate(dataset.Config{
		Nodes: 1200, Classes: 6, AvgDegree: 12, Homophily: 0.9,
		FeatureDim: 24, NoiseStd: 1.0, TrainFrac: 0.5, ValFrac: 0.2, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Condense(ds.G, Config{TargetNodes: 120}, tensor.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	// Train-only labels, then majority projection (reuse coarsen ops).
	trainLabels := make([]int, ds.G.N)
	for i := range trainLabels {
		trainLabels[i] = -1
	}
	for _, v := range ds.TrainIdx {
		trainLabels[v] = ds.Labels[v]
	}
	condLabels := coarsen.ProjectLabels(trainLabels, r.Assign, r.Condensed.N, ds.NumClasses)
	var trainIdx []int
	for c, y := range condLabels {
		if y >= 0 {
			trainIdx = append(trainIdx, c)
		} else {
			condLabels[c] = 0
		}
	}
	condDS := &dataset.Dataset{
		G:          r.Condensed,
		X:          coarsen.ProjectFeatures(ds.X, r.Assign, r.Condensed.N),
		Labels:     condLabels,
		NumClasses: ds.NumClasses,
		TrainIdx:   trainIdx, ValIdx: trainIdx, TestIdx: trainIdx,
	}
	m, err := models.NewSGC(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := models.DefaultTrainConfig()
	cfg.Epochs = 60
	if _, err := m.Fit(condDS, cfg); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(condDS)
	if err != nil {
		t.Fatal(err)
	}
	lifted := coarsen.LiftLabels(pred, r.Assign)
	testPred := make([]int, len(ds.TestIdx))
	testLabels := make([]int, len(ds.TestIdx))
	for i, v := range ds.TestIdx {
		testPred[i] = lifted[v]
		testLabels[i] = ds.Labels[v]
	}
	acc := metrics.Accuracy(testPred, testLabels)
	if acc < 0.6 {
		t.Errorf("condensed-trained accuracy %.3f on original test set (chance %.3f)",
			acc, 1.0/float64(ds.NumClasses))
	}
}

func TestCondenseValidation(t *testing.T) {
	g, _ := modularGraph(t)
	rng := tensor.NewRand(8)
	if _, err := Condense(g, Config{TargetNodes: 1}, rng); err == nil {
		t.Error("target 1 should error")
	}
	if _, err := Condense(g, Config{TargetNodes: g.N}, rng); err == nil {
		t.Error("target >= n should error")
	}
	b := graph.NewBuilder(3)
	b.Directed = true
	b.AddEdge(0, 1)
	if _, err := Condense(b.MustBuild(), Config{TargetNodes: 2}, rng); err == nil {
		t.Error("directed graph should error")
	}
}
