package graph

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"scalegnn/internal/tensor"
)

func triangle(t *testing.T) *CSR {
	t.Helper()
	g, err := FromEdges(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	g := triangle(t)
	if g.N != 3 || g.NumEdges() != 6 {
		t.Fatalf("triangle: n=%d m=%d", g.N, g.NumEdges())
	}
	for u := 0; u < 3; u++ {
		if g.Degree(u) != 2 {
			t.Errorf("degree(%d) = %d, want 2", u, g.Degree(u))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 0) {
		t.Error("HasEdge wrong")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse: undirected should merge
	b.AddEdge(2, 2) // self-loop dropped by default
	g := b.MustBuild()
	// Each direction of (0,1) appears once but with merged weight 2 (two
	// recorded undirected edges).
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees = %v", g.Degrees())
	}
	if g.Weights == nil || g.WeightedDegree(0) != 2 {
		t.Errorf("merged weight = %v, want 2", g.WeightedDegree(0))
	}

	b2 := NewBuilder(2)
	b2.KeepSelfLoops = true
	b2.AddEdge(0, 0)
	g2 := b2.MustBuild()
	if g2.Degree(0) != 1 || !g2.HasEdge(0, 0) {
		t.Error("KeepSelfLoops should retain the loop")
	}
}

// Parallel copies of an undirected edge are summed once, in insertion order
// whichever way round each was written, and both arcs carry that sum. These
// weights cancel, so any other order gives a different answer (summing the
// two directions separately once gave 15 and 12).
func TestBuilderSumsParallelEdgesOnce(t *testing.T) {
	b := NewBuilder(2)
	for i, w := range []float64{3, 3, 3, 3, -1e16, 1e16, 1} {
		b.AddWeightedEdge(i%2, 1-i%2, w)
	}
	g := b.MustBuild()
	if w01, w10 := g.Weights[0], g.Weights[1]; w01 != 13 || w10 != 13 {
		t.Fatalf("w(0,1) = %v, w(1,0) = %v, want 13 both", w01, w10)
	}
}

func TestDirectedBuilder(t *testing.T) {
	b := NewBuilder(3)
	b.Directed = true
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	if g.Undirected() {
		t.Error("graph should be directed")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("directed edges should be one-way")
	}
}

func TestNeighborsSorted(t *testing.T) {
	rng := tensor.NewRand(5)
	g := ErdosRenyi(100, 300, rng)
	for u := 0; u < g.N; u++ {
		ns := g.Neighbors(u)
		if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
			t.Fatalf("neighbors of %d not sorted", u)
		}
	}
}

func TestUndirectedSymmetryProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := tensor.NewRand(uint64(seed))
		g := ErdosRenyi(30, 60, rng)
		for u := 0; u < g.N; u++ {
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(int(v), u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestOffsetsInvariantProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := tensor.NewRand(uint64(seed) + 1)
		g := BarabasiAlbert(80, 3, rng)
		if g.Offsets[0] != 0 || g.Offsets[g.N] != int64(len(g.Adj)) {
			return false
		}
		for u := 0; u < g.N; u++ {
			if g.Offsets[u] > g.Offsets[u+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := triangle(t)
	sub, ids := g.InducedSubgraph([]int{0, 2})
	if sub.N != 2 || len(ids) != 2 {
		t.Fatalf("sub n=%d ids=%v", sub.N, ids)
	}
	if !sub.HasEdge(0, 1) {
		t.Error("edge (0,2) should survive in the induced subgraph")
	}
	if sub.NumEdges() != 2 { // one undirected edge = two arcs
		t.Errorf("sub m = %d, want 2", sub.NumEdges())
	}
}

func TestConnectedComponents(t *testing.T) {
	g, err := FromEdges(5, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	comp, k := g.ConnectedComponents()
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] || comp[4] == comp[0] {
		t.Errorf("labels = %v", comp)
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	d := g.BFSDistances(0)
	for i := 0; i < 5; i++ {
		if d[i] != i {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], i)
		}
	}
	g2, _ := FromEdges(3, [][2]int{{0, 1}})
	d2 := g2.BFSDistances(0)
	if d2[2] != -1 {
		t.Error("unreachable node should have distance -1")
	}
}

// TestBarabasiAlbertIsAFunctionOfItsSeed: two builds from the same seed are
// the same CSR. Each new node's targets used to pass through a map, whose
// range order changed the graph from run to run.
func TestBarabasiAlbertIsAFunctionOfItsSeed(t *testing.T) {
	a := BarabasiAlbert(400, 5, tensor.NewRand(7))
	b := BarabasiAlbert(400, 5, tensor.NewRand(7))
	if !slices.Equal(a.Offsets, b.Offsets) || !slices.Equal(a.Adj, b.Adj) {
		t.Fatal("same seed, different graphs")
	}
}

func TestGenerators(t *testing.T) {
	rng := tensor.NewRand(42)

	er := ErdosRenyi(50, 100, rng)
	if er.N != 50 || er.NumEdges() != 200 {
		t.Errorf("ER: n=%d arcs=%d", er.N, er.NumEdges())
	}

	ba := BarabasiAlbert(200, 3, rng)
	if ba.N != 200 {
		t.Errorf("BA n = %d", ba.N)
	}
	// BA graphs are connected by construction.
	if _, k := ba.ConnectedComponents(); k != 1 {
		t.Errorf("BA components = %d, want 1", k)
	}
	// Power-law: max degree should far exceed average.
	if avg := float64(ba.NumEdges()) / float64(ba.N); float64(ba.MaxDegree()) < 2*avg {
		t.Errorf("BA max degree %d not skewed vs avg %.1f", ba.MaxDegree(), avg)
	}

	grid := Grid(4, 5)
	if grid.N != 20 || grid.NumEdges() != 2*(4*4+3*5) {
		t.Errorf("grid: n=%d arcs=%d", grid.N, grid.NumEdges())
	}

	star, err := FromEdges(10, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 8}, {0, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if star.Degree(0) != 9 || star.Degree(1) != 1 {
		t.Error("star degrees wrong")
	}

	cyc, err := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 6; u++ {
		if cyc.Degree(u) != 2 {
			t.Fatal("cycle degree != 2")
		}
	}
}

func TestSBMHomophily(t *testing.T) {
	rng := tensor.NewRand(7)
	for _, h := range []float64{0.1, 0.9} {
		g, labels, err := SBM(SBMConfig{Nodes: 2000, Blocks: 4, AvgDegree: 10, Homophily: h}, rng)
		if err != nil {
			t.Fatal(err)
		}
		intra := 0
		for _, e := range g.UndirectedEdges() {
			if labels[e.U] == labels[e.V] {
				intra++
			}
		}
		frac := float64(intra) / float64(len(g.UndirectedEdges()))
		// Measured edge homophily should track the requested value within a
		// loose tolerance (random inter edges can also land intra-block).
		if frac < h-0.15 || frac > h+0.2 {
			t.Errorf("h=%v: measured intra fraction %.3f too far off", h, frac)
		}
	}
}

func TestSBMValidation(t *testing.T) {
	rng := tensor.NewRand(1)
	if _, _, err := SBM(SBMConfig{Nodes: 0, Blocks: 2, AvgDegree: 4, Homophily: 0.5}, rng); err == nil {
		t.Error("zero nodes should error")
	}
	if _, _, err := SBM(SBMConfig{Nodes: 10, Blocks: 2, AvgDegree: 4, Homophily: 1.5}, rng); err == nil {
		t.Error("homophily > 1 should error")
	}
	if _, _, err := SBM(SBMConfig{Nodes: 10, Blocks: 2, AvgDegree: 4, Homophily: 0.5, Assignment: []int{0}}, rng); err == nil {
		t.Error("wrong assignment length should error")
	}
}

func TestUndirectedEdgesIncludeSelfLoops(t *testing.T) {
	// A graph with a self-loop: UndirectedEdges must report the loop exactly
	// once (it is stored as a single arc), alongside each proper edge once.
	b := NewBuilder(3)
	b.KeepSelfLoops = true
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddWeightedEdge(1, 1, 2.5)
	g := b.MustBuild()

	edges := g.UndirectedEdges()
	if len(edges) != 3 {
		t.Fatalf("got %d undirected edges, want 3 (two proper + one loop): %v", len(edges), edges)
	}
	foundLoop := false
	for _, e := range edges {
		if e.U == 1 && e.V == 1 {
			foundLoop = true
			if e.W != 2.5 {
				t.Errorf("loop weight %v, want 2.5", e.W)
			}
		}
		if e.U > e.V {
			t.Errorf("edge (%d,%d) violates u <= v ordering", e.U, e.V)
		}
	}
	if !foundLoop {
		t.Fatal("self-loop (1,1) missing from UndirectedEdges")
	}
}

func TestUndirectedEdgesRoundTrip(t *testing.T) {
	// Rebuilding a graph from its UndirectedEdges must reproduce the same
	// structure — including self-loops, which a (v > u) filter would drop.
	rng := tensor.NewRand(7)
	b := NewBuilder(20)
	b.KeepSelfLoops = true
	for i := 0; i < 40; i++ {
		b.AddEdge(rng.IntN(20), rng.IntN(20))
	}
	g := b.MustBuild()

	rb := NewBuilder(g.N)
	rb.KeepSelfLoops = true
	for _, e := range g.UndirectedEdges() {
		rb.AddWeightedEdge(e.U, e.V, e.W)
	}
	g2 := rb.MustBuild()

	if g2.N != g.N || len(g2.Adj) != len(g.Adj) {
		t.Fatalf("round trip changed size: n %d->%d, arcs %d->%d", g.N, g2.N, len(g.Adj), len(g2.Adj))
	}
	for u := 0; u < g.N; u++ {
		ns, ns2 := g.Neighbors(u), g2.Neighbors(u)
		if len(ns) != len(ns2) {
			t.Fatalf("node %d degree %d -> %d after round trip", u, len(ns), len(ns2))
		}
		for i := range ns {
			if ns[i] != ns2[i] {
				t.Fatalf("node %d neighbor %d: %d -> %d", u, i, ns[i], ns2[i])
			}
			if g.EdgeWeight(int(g.Offsets[u])+i) != g2.EdgeWeight(int(g2.Offsets[u])+i) {
				t.Fatalf("node %d arc %d weight changed", u, i)
			}
		}
	}
}
