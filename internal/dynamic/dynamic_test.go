package dynamic

import (
	"reflect"
	"testing"
	"testing/quick"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

func TestGraphAddRemove(t *testing.T) {
	g := newGraph(5)
	if !g.AddEdge(0, 1) || !g.AddEdge(1, 2) {
		t.Fatal("AddEdge failed")
	}
	if g.NumEdges() != 2 || g.Degree(1) != 2 {
		t.Fatalf("m=%d deg(1)=%d", g.NumEdges(), g.Degree(1))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge should exist in both directions")
	}
	// Duplicates, self-loops, out of range all rejected.
	if g.AddEdge(0, 1) || g.AddEdge(2, 2) || g.AddEdge(0, 9) || g.AddEdge(-1, 0) {
		t.Error("invalid AddEdge accepted")
	}
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge failed")
	}
	if g.HasEdge(0, 1) || g.NumEdges() != 1 {
		t.Error("edge not removed")
	}
	if g.RemoveEdge(0, 1) || g.RemoveEdge(0, 9) {
		t.Error("removing absent edge should fail")
	}
}

func TestNeighborsSortedInvariant(t *testing.T) {
	f := func(seed uint16) bool {
		rng := tensor.NewRand(uint64(seed))
		g := newGraph(30)
		for i := 0; i < 100; i++ {
			u, v := rng.IntN(30), rng.IntN(30)
			if rng.Float64() < 0.7 {
				g.AddEdge(u, v)
			} else {
				g.RemoveEdge(u, v)
			}
		}
		for u := 0; u < 30; u++ {
			ns := g.Neighbors(u)
			for i := 1; i < len(ns); i++ {
				if ns[i] <= ns[i-1] {
					return false
				}
			}
			// Symmetry.
			for _, v := range ns {
				if !g.HasEdge(int(v), u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := tensor.NewRand(3)
	static := graph.BarabasiAlbert(100, 3, rng)
	d, err := FromCSR(static)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumEdges()*2 != static.NumEdges() {
		t.Fatalf("edge count mismatch: %d vs %d arcs", d.NumEdges()*2, static.NumEdges())
	}
	snap := d.Snapshot()
	if snap.NumEdges() != static.NumEdges() {
		t.Error("snapshot changed edge count")
	}
	for u := 0; u < 100; u++ {
		a, b := static.Neighbors(u), snap.Neighbors(u)
		if len(a) != len(b) {
			t.Fatalf("node %d degree changed", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("neighbor mismatch")
			}
		}
	}
}

func TestFromCSRRejectsDirected(t *testing.T) {
	b := graph.NewBuilder(3)
	b.Directed = true
	b.AddEdge(0, 1)
	if _, err := FromCSR(b.MustBuild()); err == nil {
		t.Error("directed graph should be rejected")
	}
}

func TestWalkMaintainerInitialWalks(t *testing.T) {
	rng := tensor.NewRand(5)
	static := graph.BarabasiAlbert(200, 3, rng)
	d, err := FromCSR(static)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewWalkMaintainer(d, []int{0, 5, 9}, 20, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := m.Walks(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 20 {
		t.Fatalf("got %d walks", len(ws))
	}
	for _, path := range ws {
		if path[0] != 5 {
			t.Fatal("walk must start at seed")
		}
		if len(path) > 5 {
			t.Fatal("walk too long")
		}
		for i := 1; i < len(path); i++ {
			if !d.HasEdge(int(path[i-1]), int(path[i])) {
				t.Fatal("walk uses a non-edge")
			}
		}
	}
	if _, err := m.Walks(99); err == nil {
		t.Error("untracked seed should error")
	}
}

func TestWalkMaintainerLocality(t *testing.T) {
	rng := tensor.NewRand(7)
	static := graph.BarabasiAlbert(2000, 4, rng)
	d, err := FromCSR(static)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int{1, 100, 500, 900, 1500}
	m, err := NewWalkMaintainer(d, seeds, 30, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Random edge insertions far from most seeds: only a small fraction of
	// walks should need resampling.
	events := 50
	for i := 0; i < events; i++ {
		u, v := rng.IntN(d.N()), rng.IntN(d.N())
		if d.AddEdge(u, v) {
			m.OnEdgeEvent(u, v)
		} else {
			m.stats.Events++ // count skipped event for fraction math
		}
	}
	frac := m.ResampleFraction()
	if frac >= 0.5 {
		t.Errorf("resample fraction %v; incremental maintenance not local", frac)
	}
	// Walks must remain valid on the mutated graph.
	for _, s := range seeds {
		ws, err := m.Walks(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range ws {
			for i := 1; i < len(path); i++ {
				if !d.HasEdge(int(path[i-1]), int(path[i])) {
					t.Fatal("stale walk after events")
				}
			}
		}
	}
}

// TestWalkMaintainerDeterministic: two maintainers with the same seed fed
// the same event stream end with the same walks and counters. The events
// touch the BA graph's hubs, so each resamples many walks from the shared
// RNG, and any order that is not a function of the seed (a map's) shows.
func TestWalkMaintainerDeterministic(t *testing.T) {
	static := graph.BarabasiAlbert(500, 3, tensor.NewRand(3))
	evRng := tensor.NewRand(4)
	events := make([][2]int, 40)
	for i := range events {
		events[i] = [2]int{evRng.IntN(5), evRng.IntN(static.N)}
	}
	run := func() ([][][]int32, MaintainerStats) {
		d, err := FromCSR(static)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewWalkMaintainer(d, []int{0, 1, 2, 50, 250}, 20, 4, tensor.NewRand(5))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if d.AddEdge(e[0], e[1]) || d.RemoveEdge(e[0], e[1]) {
				m.OnEdgeEvent(e[0], e[1])
			}
		}
		return m.walks, m.Stats()
	}
	w1, s1 := run()
	w2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	if !reflect.DeepEqual(w1, w2) {
		t.Fatal("walks differ between two runs at one seed")
	}
}

func TestWalkMaintainerRemovalInvalidation(t *testing.T) {
	// Build a path graph so walks from node 0 must traverse edge (0,1).
	d := newGraph(4)
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	d.AddEdge(2, 3)
	rng := tensor.NewRand(9)
	m, err := NewWalkMaintainer(d, []int{0}, 10, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the only edge out of the seed: every walk visits node 0, so
	// all 10 walks must be resampled, and new walks must be stuck at 0.
	d.RemoveEdge(0, 1)
	resampled := m.OnEdgeEvent(0, 1)
	if resampled != 10 {
		t.Errorf("resampled %d of 10 walks", resampled)
	}
	ws, _ := m.Walks(0)
	for _, path := range ws {
		if len(path) != 1 || path[0] != 0 {
			t.Fatalf("walk %v should be stuck at isolated seed", path)
		}
	}
}

func TestWalkMaintainerValidation(t *testing.T) {
	d := newGraph(3)
	rng := tensor.NewRand(1)
	if _, err := NewWalkMaintainer(d, []int{0}, 0, 3, rng); err == nil {
		t.Error("zero walks should error")
	}
	if _, err := NewWalkMaintainer(d, []int{7}, 5, 3, rng); err == nil {
		t.Error("out-of-range seed should error")
	}
}

func BenchmarkEdgeEventMaintenance(b *testing.B) {
	rng := tensor.NewRand(1)
	static := graph.BarabasiAlbert(20000, 5, rng)
	d, err := FromCSR(static)
	if err != nil {
		b.Fatal(err)
	}
	seeds := make([]int, 100)
	for i := range seeds {
		seeds[i] = i * 199
	}
	m, err := NewWalkMaintainer(d, seeds, 50, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.IntN(d.N()), rng.IntN(d.N())
		if d.AddEdge(u, v) {
			m.OnEdgeEvent(u, v)
		}
	}
}
