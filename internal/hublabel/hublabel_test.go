package hublabel

import (
	"testing"
	"testing/quick"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

func TestQueryMatchesBFSOnRandomGraphs(t *testing.T) {
	rng := tensor.NewRand(1)
	for trial := 0; trial < 5; trial++ {
		g := graph.ErdosRenyi(60, 120, rng)
		ix, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < g.N; s += 7 {
			bfs := g.BFSDistances(s)
			for v := 0; v < g.N; v++ {
				got, err := ix.Query(s, v)
				if err != nil {
					t.Fatal(err)
				}
				want := bfs[v]
				if want == -1 {
					if got != Infinity {
						t.Fatalf("trial %d: d(%d,%d) = %d, want Infinity", trial, s, v, got)
					}
					continue
				}
				if got != want {
					t.Fatalf("trial %d: d(%d,%d) = %d, BFS = %d", trial, s, v, got, want)
				}
			}
		}
	}
}

func TestQueryExactProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := tensor.NewRand(uint64(seed) + 500)
		g := graph.BarabasiAlbert(40, 2, rng)
		ix, err := Build(g)
		if err != nil {
			return false
		}
		s := int(seed) % g.N
		bfs := g.BFSDistances(s)
		for v := 0; v < g.N; v++ {
			got, err := ix.Query(s, v)
			if err != nil || got != bfs[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestGridDistances(t *testing.T) {
	g := graph.Grid(6, 7)
	ix, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	// Manhattan distance on a grid.
	id := func(r, c int) int { return r*7 + c }
	d, err := ix.Query(id(0, 0), id(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if d != 11 {
		t.Errorf("corner-to-corner = %d, want 11", d)
	}
}

func TestSelfDistanceZero(t *testing.T) {
	g := graph.Path(5)
	ix, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if d, _ := ix.Query(v, v); d != 0 {
			t.Errorf("d(%d,%d) = %d", v, v, d)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	g := graph.Path(3)
	ix, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Query(-1, 0); err == nil {
		t.Error("negative source should error")
	}
	if _, err := ix.Query(0, 3); err == nil {
		t.Error("out-of-range target should error")
	}
}

func TestBuildEmptyGraphErrors(t *testing.T) {
	g, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g); err == nil {
		t.Error("empty graph should error")
	}
}

func TestPruningKeepsLabelsSmall(t *testing.T) {
	// On a star, the hub covers every shortest path: labels should be O(1)
	// per node, not O(n).
	hub := make([][2]int, 0, 99)
	for i := 1; i < 100; i++ {
		hub = append(hub, [2]int{0, i})
	}
	g, err := graph.FromEdges(100, hub)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if avg := ix.AvgLabelSize(); avg > 3 {
		t.Errorf("star avg label size %v; pruning ineffective", avg)
	}
	// And on a BA graph labels should stay far below n.
	rng := tensor.NewRand(2)
	ba := graph.BarabasiAlbert(500, 3, rng)
	ix2, err := Build(ba)
	if err != nil {
		t.Fatal(err)
	}
	if avg := ix2.AvgLabelSize(); avg > float64(ba.N)/4 {
		t.Errorf("BA avg label size %v too close to n=%d", avg, ba.N)
	}
}

// TestCoreNodesAreHighDegree: the first 5% of the landmark order — the
// hubs CFGNN treats as its core — all have at least the median degree.
func TestCoreNodesAreHighDegree(t *testing.T) {
	rng := tensor.NewRand(3)
	g := graph.BarabasiAlbert(200, 3, rng)
	core := NewMust(t, g).order[:10]
	degs := g.Degrees()
	sorted := append([]int(nil), degs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j-1] > sorted[j]; j-- {
			sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
		}
	}
	median := sorted[len(sorted)/2]
	for _, u := range core {
		if degs[u] < median {
			t.Errorf("core node %d has degree %d < median %d", u, degs[u], median)
		}
	}
}

// NewMust builds an index or fails the test.
func NewMust(t *testing.T, g *graph.CSR) *Index {
	t.Helper()
	ix, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestDistanceMatrix(t *testing.T) {
	g := graph.Path(6)
	ix := NewMust(t, g)
	m, err := ix.DistanceMatrix([]int{0, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 2, 5}, {2, 0, 3}, {5, 3, 0}}
	for i := range want {
		for j := range want[i] {
			if m[i][j] != want[i][j] {
				t.Errorf("m[%d][%d] = %d, want %d", i, j, m[i][j], want[i][j])
			}
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := tensor.NewRand(1)
	g := graph.BarabasiAlbert(2000, 4, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryVsBFS(b *testing.B) {
	rng := tensor.NewRand(1)
	g := graph.BarabasiAlbert(5000, 4, rng)
	ix, err := Build(g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hublabel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Query(i%g.N, (i*7919)%g.N); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.BFSDistances(i % g.N)
		}
	})
}
