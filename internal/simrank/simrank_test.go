package simrank

import (
	"math"
	"testing"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

func TestAllPairsBasicProperties(t *testing.T) {
	rng := tensor.NewRand(1)
	g := graph.ErdosRenyi(20, 50, rng)
	s, err := AllPairs(g, 0.6, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N; i++ {
		if s.At(i, i) != 1 {
			t.Fatalf("s(%d,%d) = %v, want 1", i, i, s.At(i, i))
		}
		for j := 0; j < g.N; j++ {
			v := s.At(i, j)
			if v < 0 || v > 1+1e-12 {
				t.Fatalf("s(%d,%d) = %v outside [0,1]", i, j, v)
			}
			if math.Abs(v-s.At(j, i)) > 1e-12 {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestAllPairsStarClosedForm(t *testing.T) {
	// In a star, two leaves both have the hub as their only neighbor, so
	// s(leaf_i, leaf_j) = c · s(hub, hub) = c.
	g, err := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	c := 0.6
	s, err := AllPairs(g, c, 15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.At(1, 2)-c) > 1e-10 {
		t.Errorf("s(leaf,leaf) = %v, want %v", s.At(1, 2), c)
	}
	// Hub vs leaf: neighbors are {leaves} vs {hub}; s(hub, leaf) =
	// c · mean_i s(leaf_i, hub) — fixed point where s(hub,leaf)=x satisfies
	// x = c·x, so x = 0.
	if s.At(0, 1) > 1e-10 {
		t.Errorf("s(hub,leaf) = %v, want 0", s.At(0, 1))
	}
}

func TestAllPairsValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := AllPairs(g, 0, 5); err == nil {
		t.Error("c=0 should error")
	}
	if _, err := AllPairs(g, 1, 5); err == nil {
		t.Error("c=1 should error")
	}
	if _, err := AllPairs(g, 0.5, 0); err == nil {
		t.Error("iters=0 should error")
	}
}

func TestAllPairsDisconnectedZero(t *testing.T) {
	// Nodes in different components never meet: similarity 0.
	g, err := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := AllPairs(g, 0.6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0, 2) != 0 || s.At(1, 3) != 0 {
		t.Errorf("cross-component similarity nonzero: %v, %v", s.At(0, 2), s.At(1, 3))
	}
}

func TestIndexMatchesExact(t *testing.T) {
	rng := tensor.NewRand(2)
	g := graph.ErdosRenyi(30, 80, rng)
	exact, err := AllPairs(g, 0.6, 12)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(g, IndexConfig{C: 0.6, Walks: 3000, Length: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for a := 0; a < 5; a++ {
		scores, err := ix.SingleSource(a)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < g.N; b++ {
			if e := math.Abs(scores[b] - exact.At(a, b)); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr > 0.05 {
		t.Errorf("MC index max error %v vs exact (3000 walks)", maxErr)
	}
}

func TestIndexSelfSimilarityOne(t *testing.T) {
	rng := tensor.NewRand(4)
	g, err := graph.FromEdges(10, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 0}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(g, DefaultIndexConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := ix.SingleSource(3)
	if err != nil || ss[3] != 1 {
		t.Errorf("SingleSource self = %v, err %v", ss[3], err)
	}
}

func TestTopKOrderingAndExclusion(t *testing.T) {
	rng := tensor.NewRand(5)
	g := graph.BarabasiAlbert(80, 3, rng)
	ix, err := BuildIndex(g, IndexConfig{C: 0.6, Walks: 400, Length: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	top, err := ix.TopK(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || len(top) > 10 {
		t.Fatalf("TopK size %d", len(top))
	}
	for i, e := range top {
		if e.Node == 0 {
			t.Error("TopK must exclude the query node")
		}
		if i > 0 && e.Score > top[i-1].Score {
			t.Error("TopK not sorted descending")
		}
	}
}

func TestIndexValidation(t *testing.T) {
	g := graph.Path(4)
	rng := tensor.NewRand(6)
	if _, err := BuildIndex(g, IndexConfig{C: 1.2, Walks: 10, Length: 3}, rng); err == nil {
		t.Error("bad C should error")
	}
	if _, err := BuildIndex(g, IndexConfig{C: 0.6, Walks: 0, Length: 3}, rng); err == nil {
		t.Error("zero walks should error")
	}
	ix, err := BuildIndex(g, IndexConfig{C: 0.6, Walks: 4, Length: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.SingleSource(-1); err == nil {
		t.Error("bad source should error")
	}
}

func TestIndexMemoryFootprintPositive(t *testing.T) {
	rng := tensor.NewRand(7)
	g := graph.BarabasiAlbert(100, 3, rng)
	ix, err := BuildIndex(g, DefaultIndexConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if ix.MemoryFootprint() <= 0 {
		t.Error("MemoryFootprint should be positive")
	}
}

func TestSimRankHomophilyStructure(t *testing.T) {
	// On a strongly modular SBM, intra-block SimRank should on average
	// exceed inter-block SimRank — the property SIMGA exploits.
	rng := tensor.NewRand(8)
	g, labels, err := graph.SBM(graph.SBMConfig{Nodes: 60, Blocks: 2, AvgDegree: 8, Homophily: 0.9}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := AllPairs(g, 0.6, 10)
	if err != nil {
		t.Fatal(err)
	}
	var intra, inter float64
	var nIntra, nInter int
	for a := 0; a < g.N; a++ {
		for b := a + 1; b < g.N; b++ {
			if labels[a] == labels[b] {
				intra += s.At(a, b)
				nIntra++
			} else {
				inter += s.At(a, b)
				nInter++
			}
		}
	}
	if intra/float64(nIntra) <= inter/float64(nInter) {
		t.Errorf("intra-block SimRank %.4f not above inter-block %.4f",
			intra/float64(nIntra), inter/float64(nInter))
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	rng := tensor.NewRand(1)
	g := graph.BarabasiAlbert(2000, 5, rng)
	cfg := DefaultIndexConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(g, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKQuery(b *testing.B) {
	rng := tensor.NewRand(1)
	g := graph.BarabasiAlbert(2000, 5, rng)
	ix, err := BuildIndex(g, DefaultIndexConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.TopK(i%g.N, 16); err != nil {
			b.Fatal(err)
		}
	}
}
