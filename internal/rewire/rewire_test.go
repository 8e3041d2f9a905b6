package rewire

import (
	"testing"

	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/simrank"
	"scalegnn/internal/tensor"
)

// heteroGraph builds a heterophilous SBM with class-separated features.
func heteroGraph(t *testing.T) (*graph.CSR, *tensor.Matrix, []int) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Nodes: 400, Classes: 4, AvgDegree: 8, Homophily: 0.1,
		FeatureDim: 16, NoiseStd: 0.5, TrainFrac: 0.5, ValFrac: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.G, ds.X, ds.Labels
}

func TestCosineRewireRaisesHomophily(t *testing.T) {
	g, x, labels := heteroGraph(t)
	sim := NewCosineSimilarity(g, x)
	res, err := Rewire(g, sim, Config{AddK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added == 0 {
		t.Fatal("no edges added")
	}
	before, after := dataset.EdgeHomophily(g, labels), dataset.EdgeHomophily(res.G, labels)
	if after <= before {
		t.Errorf("homophily did not improve: %.3f -> %.3f", before, after)
	}
}

func TestRewirePrune(t *testing.T) {
	g, x, _ := heteroGraph(t)
	sim := NewCosineSimilarity(g, x)
	res, err := Rewire(g, sim, Config{PruneBelow: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == 0 {
		t.Fatal("nothing pruned on a heterophilous graph with threshold 0.3")
	}
	if res.G.NumEdges() >= g.NumEdges() {
		t.Error("pruning should reduce edges")
	}
}

func TestRewireAddAndPruneTogether(t *testing.T) {
	g, x, labels := heteroGraph(t)
	sim := NewCosineSimilarity(g, x)
	res, err := Rewire(g, sim, Config{AddK: 4, PruneBelow: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added == 0 || res.Pruned == 0 {
		t.Fatalf("added=%d pruned=%d", res.Added, res.Pruned)
	}
	before, after := dataset.EdgeHomophily(g, labels), dataset.EdgeHomophily(res.G, labels)
	// Add + prune should improve homophily more than either alone tends to.
	if after <= before {
		t.Errorf("homophily %.3f -> %.3f", before, after)
	}
	if res.Queried != g.N {
		t.Errorf("queried %d of %d nodes", res.Queried, g.N)
	}
}

func TestSimRankRewire(t *testing.T) {
	g, _, _ := heteroGraph(t)
	rng := tensor.NewRand(5)
	ix, err := simrank.BuildIndex(g, simrank.IndexConfig{C: 0.6, Walks: 200, Length: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rewire(g, SimRankSimilarity{Index: ix}, Config{AddK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added == 0 {
		t.Fatal("SimRank rewiring added nothing")
	}
	// All original edges must survive (no pruning requested).
	for _, e := range g.UndirectedEdges() {
		if !res.G.HasEdge(e.U, e.V) {
			t.Fatal("original edge lost without pruning")
		}
	}
}

func TestRewireValidation(t *testing.T) {
	g, x, _ := heteroGraph(t)
	sim := NewCosineSimilarity(g, x)
	if _, err := Rewire(g, sim, Config{}); err == nil {
		t.Error("no-op config should error")
	}
	if _, err := Rewire(g, sim, Config{AddK: -1}); err == nil {
		t.Error("negative AddK should error")
	}
	b := graph.NewBuilder(2)
	b.Directed = true
	b.AddEdge(0, 1)
	if _, err := Rewire(b.MustBuild(), sim, Config{AddK: 1}); err == nil {
		t.Error("directed graph should error")
	}
}

func TestCosineQueryLocality(t *testing.T) {
	g, x, _ := heteroGraph(t)
	sim := NewCosineSimilarity(g, x)
	scores, err := sim.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	dist := g.BFSDistances(0)
	for v, s := range scores {
		if s != 0 && (dist[v] > 2 || dist[v] < 1) {
			t.Fatalf("node %d at distance %d scored %v; candidates must be 1-2 hops", v, dist[v], s)
		}
	}
	if _, err := sim.Query(-1); err == nil {
		t.Error("bad node should error")
	}
}
