package sparsify

import (
	"math"
	"testing"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

func testGraph(t *testing.T, seed uint64) *graph.CSR {
	t.Helper()
	return graph.BarabasiAlbert(300, 5, tensor.NewRand(seed))
}

func TestUniformKeepsExpectedFraction(t *testing.T) {
	g := testGraph(t, 1)
	rng := tensor.NewRand(2)
	h, err := Uniform(g, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(h.NumEdges()) / float64(g.NumEdges())
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("kept fraction %v, want ~0.5", frac)
	}
	// Reweighting: each surviving edge has weight 2.
	for _, e := range h.UndirectedEdges() {
		if math.Abs(e.W-2) > 1e-12 {
			t.Fatalf("edge weight %v, want 2", e.W)
		}
	}
}

func TestUniformKeepAllIsIdentity(t *testing.T) {
	g := testGraph(t, 3)
	h, err := Uniform(g, 1, tensor.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Errorf("keep=1 lost edges: %d vs %d", h.NumEdges(), g.NumEdges())
	}
}

func TestUniformValidation(t *testing.T) {
	g := testGraph(t, 5)
	rng := tensor.NewRand(6)
	if _, err := Uniform(g, 0, rng); err == nil {
		t.Error("keep=0 should error")
	}
	if _, err := Uniform(g, 1.5, rng); err == nil {
		t.Error("keep>1 should error")
	}
	b := graph.NewBuilder(2)
	b.Directed = true
	b.AddEdge(0, 1)
	if _, err := Uniform(b.MustBuild(), 0.5, rng); err == nil {
		t.Error("directed graph should error")
	}
}

func TestTopKPerNodeDegreeCap(t *testing.T) {
	g := testGraph(t, 13)
	h, err := TopKPerNode(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() >= g.NumEdges() {
		t.Error("top-k should remove edges on a BA graph")
	}
	// Edges survive if EITHER endpoint ranks them, so a hub can exceed k,
	// but every edge must be in some endpoint's top-3.
	for u := 0; u < h.N; u++ {
		if h.Degree(u) == 0 && g.Degree(u) > 0 {
			t.Fatalf("node %d lost all edges", u)
		}
	}
}

func TestTopKPerNodeDeterministic(t *testing.T) {
	g := testGraph(t, 14)
	h1, _ := TopKPerNode(g, 2)
	h2, _ := TopKPerNode(g, 2)
	if h1.NumEdges() != h2.NumEdges() {
		t.Error("TopKPerNode not deterministic")
	}
}

func TestTopKValidation(t *testing.T) {
	g := testGraph(t, 15)
	if _, err := TopKPerNode(g, 0); err == nil {
		t.Error("k=0 should error")
	}
}

func TestPropagationSpeedup(t *testing.T) {
	g := testGraph(t, 20)
	h, err := TopKPerNode(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := PropagationSpeedup(g, h)
	if s <= 1 {
		t.Errorf("speedup %v, want > 1", s)
	}
	empty, _ := graph.FromEdges(g.N, nil)
	if PropagationSpeedup(g, empty) != 0 {
		t.Error("empty sparsifier should report 0")
	}
}
