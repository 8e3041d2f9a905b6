package subgraph

import (
	"testing"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

func testGraph(t *testing.T, seed uint64) *graph.CSR {
	t.Helper()
	return graph.BarabasiAlbert(300, 4, tensor.NewRand(seed))
}

func TestEgoNetRadius(t *testing.T) {
	g := graph.Path(10)
	sub, ids, err := EgoNet(g, 5, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 3..7.
	if sub.N != 5 {
		t.Fatalf("2-hop ego of path center: %d nodes, want 5", sub.N)
	}
	if ids[0] != 5 {
		t.Error("center must be first")
	}
	want := map[int]bool{3: true, 4: true, 5: true, 6: true, 7: true}
	for _, id := range ids {
		if !want[id] {
			t.Errorf("unexpected node %d", id)
		}
	}
}

func TestEgoNetCap(t *testing.T) {
	g := testGraph(t, 1)
	sub, ids, err := EgoNet(g, 0, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if sub.N > 20 || len(ids) > 20 {
		t.Errorf("cap violated: %d nodes", sub.N)
	}
}

func TestEgoNetZeroHops(t *testing.T) {
	g := testGraph(t, 2)
	sub, ids, err := EgoNet(g, 7, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sub.N != 1 || ids[0] != 7 {
		t.Errorf("0-hop ego: n=%d ids=%v", sub.N, ids)
	}
}

func TestEgoNetValidation(t *testing.T) {
	g := testGraph(t, 3)
	if _, _, err := EgoNet(g, -1, 2, 0); err == nil {
		t.Error("bad center should error")
	}
	if _, _, err := EgoNet(g, 0, -1, 0); err == nil {
		t.Error("negative hops should error")
	}
}

func TestWalkStorePreprocessAndNodeSets(t *testing.T) {
	g := testGraph(t, 4)
	rng := tensor.NewRand(5)
	ws, err := NewWalkStore(g, WalkStoreConfig{Walks: 20, Length: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Preprocess([]int{0, 1, 2}, rng); err != nil {
		t.Fatal(err)
	}
	if _, ok := ws.walks[99]; ok {
		t.Error("unrequested seed stored")
	}
	ns := ws.nodeSet[0]
	if len(ns) == 0 {
		t.Fatal("empty node set")
	}
	// Sorted and unique.
	for i := 1; i < len(ns); i++ {
		if ns[i] <= ns[i-1] {
			t.Fatal("node set not sorted unique")
		}
	}
	// Seed must be in its own set.
	found := false
	for _, v := range ns {
		if v == 0 {
			found = true
		}
	}
	if !found {
		t.Error("seed missing from its node set")
	}
	// Every set node must be reachable within Length hops.
	dist := g.BFSDistances(0)
	for _, v := range ns {
		if dist[v] > 4 || dist[v] == -1 {
			t.Errorf("node %d at distance %d in a 4-step walk set", v, dist[v])
		}
	}
}

func TestWalkStoreIncrementalPreprocess(t *testing.T) {
	g := testGraph(t, 6)
	rng := tensor.NewRand(7)
	ws, _ := NewWalkStore(g, WalkStoreConfig{Walks: 10, Length: 3})
	if err := ws.Preprocess([]int{0}, rng); err != nil {
		t.Fatal(err)
	}
	before := ws.nodeSet[0]
	// Re-preprocessing the same seed must be a no-op (stored set reused).
	if err := ws.Preprocess([]int{0, 5}, rng); err != nil {
		t.Fatal(err)
	}
	after := ws.nodeSet[0]
	if len(before) != len(after) {
		t.Error("stored set was recomputed")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("stored set changed")
		}
	}
}

func TestJoinFeatures(t *testing.T) {
	g := testGraph(t, 8)
	rng := tensor.NewRand(9)
	const L = 4
	ws, _ := NewWalkStore(g, WalkStoreConfig{Walks: 30, Length: L})
	if err := ws.Preprocess([]int{0, 1}, rng); err != nil {
		t.Fatal(err)
	}
	jr, err := ws.Join(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Features.Rows != len(jr.Nodes) || jr.Features.Cols != 2*(L+1) {
		t.Fatalf("features shape %dx%d", jr.Features.Rows, jr.Features.Cols)
	}
	// The seed u=0 must have profile[0] == 1 in the u-half (every walk
	// starts there) — find its row.
	for i, v := range jr.Nodes {
		if v == 0 {
			if jr.Features.At(i, 0) != 1 {
				t.Errorf("seed landing prob at step 0 = %v, want 1", jr.Features.At(i, 0))
			}
		}
		if v == 1 {
			if jr.Features.At(i, L+1) != 1 {
				t.Errorf("second seed profile = %v, want 1", jr.Features.At(i, L+1))
			}
		}
	}
	// Union sorted.
	for i := 1; i < len(jr.Nodes); i++ {
		if jr.Nodes[i] <= jr.Nodes[i-1] {
			t.Fatal("join union not sorted unique")
		}
	}
}

func TestJoinRequiresPreprocess(t *testing.T) {
	g := testGraph(t, 10)
	ws, _ := NewWalkStore(g, WalkStoreConfig{Walks: 5, Length: 2})
	if _, err := ws.Join(0, 1); err == nil {
		t.Error("join of unpreprocessed seeds should error")
	}
}

func TestStorageBytesGrowsWithSeeds(t *testing.T) {
	g := testGraph(t, 13)
	rng := tensor.NewRand(14)
	ws, _ := NewWalkStore(g, WalkStoreConfig{Walks: 10, Length: 3})
	if err := ws.Preprocess([]int{0}, rng); err != nil {
		t.Fatal(err)
	}
	b1 := ws.StorageBytes()
	if err := ws.Preprocess([]int{1, 2, 3}, rng); err != nil {
		t.Fatal(err)
	}
	if ws.StorageBytes() <= b1 {
		t.Error("storage should grow with more seeds")
	}
}

func TestWalkStoreValidation(t *testing.T) {
	g := testGraph(t, 15)
	if _, err := NewWalkStore(g, WalkStoreConfig{Walks: 0, Length: 3}); err == nil {
		t.Error("zero walks should error")
	}
	ws, _ := NewWalkStore(g, WalkStoreConfig{Walks: 2, Length: 2})
	if err := ws.Preprocess([]int{-1}, tensor.NewRand(1)); err == nil {
		t.Error("bad seed should error")
	}
}

func TestReuseRatio(t *testing.T) {
	queries := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	// Nothing stored: first touches miss, repeats hit.
	r := ReuseRatio(queries, nil)
	// Fetches: 0(miss) 1(miss) 1(hit) 2(miss) 0(hit) 2(hit) = 3/6.
	if r != 0.5 {
		t.Errorf("reuse ratio = %v, want 0.5", r)
	}
	// All endpoints pre-stored: ratio 1.
	pre := map[int]bool{0: true, 1: true, 2: true}
	if r := ReuseRatio(queries, pre); r != 1 {
		t.Errorf("pre-stored reuse = %v, want 1", r)
	}
	if ReuseRatio(nil, nil) != 0 {
		t.Error("empty queries should be 0")
	}
}

func BenchmarkJoinVsEgoNet(b *testing.B) {
	g := graph.BarabasiAlbert(20000, 6, tensor.NewRand(1))
	rng := tensor.NewRand(2)
	ws, _ := NewWalkStore(g, WalkStoreConfig{Walks: 50, Length: 4})
	seeds := make([]int, 200)
	for i := range seeds {
		seeds[i] = i * 97 % g.N
	}
	if err := ws.Preprocess(seeds, rng); err != nil {
		b.Fatal(err)
	}
	b.Run("join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u, v := seeds[i%200], seeds[(i+7)%200]
			if _, err := ws.Join(u, v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("egonet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := EgoNet(g, seeds[i%200], 3, 200); err != nil {
				b.Fatal(err)
			}
		}
	})
}
