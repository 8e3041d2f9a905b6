// Package dynamic provides a mutable graph substrate and incremental
// walk-set maintenance for streaming graphs — tutorial §3.4.2 (dynamic
// graphs) and the GENTI system of §3.3.3, which keeps walk-based subgraph
// indexes fresh under edge arrivals without full recomputation.
//
// Graph supports edge insertion/deletion with O(deg) updates and O(1)
// snapshots into the immutable CSR form the rest of the library consumes.
// WalkMaintainer tracks random-walk sets for a set of seeds and, on each
// edge event, resamples only the walks that pass through an affected
// endpoint — the incremental-maintenance idea that makes walk-based
// representation learning viable on streams.
package dynamic

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"

	"scalegnn/internal/graph"
)

// Graph is a mutable undirected graph with sorted adjacency lists.
type Graph struct {
	n    int
	adj  [][]int32
	arcs int
}

// newGraph returns an empty dynamic graph on n nodes.
func newGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]int32, n)}
}

// FromCSR copies a static graph into mutable form. The CSR must be
// undirected.
func FromCSR(g *graph.CSR) (*Graph, error) {
	if !g.Undirected() {
		return nil, fmt.Errorf("dynamic: FromCSR requires an undirected graph")
	}
	d := newGraph(g.N)
	for u := 0; u < g.N; u++ {
		ns := g.Neighbors(u)
		d.adj[u] = append([]int32(nil), ns...)
		d.arcs += len(ns)
	}
	return d, nil
}

// N returns the node count.
func (d *Graph) N() int { return d.n }

// NumEdges returns the undirected edge count.
func (d *Graph) NumEdges() int { return d.arcs / 2 }

// Degree returns the degree of u.
func (d *Graph) Degree(u int) int { return len(d.adj[u]) }

// Neighbors returns u's sorted neighbor list (aliases internal storage).
func (d *Graph) Neighbors(u int) []int32 { return d.adj[u] }

// HasEdge reports whether the undirected edge (u, v) exists.
func (d *Graph) HasEdge(u, v int) bool {
	ns := d.adj[u]
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(v) })
	return i < len(ns) && ns[i] == int32(v)
}

// AddEdge inserts the undirected edge (u, v). Returns false if the edge
// already exists or is a self-loop or out of range.
func (d *Graph) AddEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= d.n || v >= d.n || d.HasEdge(u, v) {
		return false
	}
	d.insert(u, int32(v))
	d.insert(v, int32(u))
	d.arcs += 2
	return true
}

// RemoveEdge deletes the undirected edge (u, v). Returns false if absent.
func (d *Graph) RemoveEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= d.n || v >= d.n || !d.HasEdge(u, v) {
		return false
	}
	d.remove(u, int32(v))
	d.remove(v, int32(u))
	d.arcs -= 2
	return true
}

func (d *Graph) insert(u int, v int32) {
	ns := d.adj[u]
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	ns = append(ns, 0)
	copy(ns[i+1:], ns[i:])
	ns[i] = v
	d.adj[u] = ns
}

func (d *Graph) remove(u int, v int32) {
	ns := d.adj[u]
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	d.adj[u] = append(ns[:i], ns[i+1:]...)
}

// Snapshot materializes the current state as an immutable CSR.
func (d *Graph) Snapshot() *graph.CSR {
	b := graph.NewBuilder(d.n)
	for u := 0; u < d.n; u++ {
		for _, v := range d.adj[u] {
			if int(v) > u {
				b.AddEdge(u, int(v))
			}
		}
	}
	return b.MustBuild()
}

// WalkMaintainer keeps R random walks of length L per tracked seed current
// under edge events. Only walks whose path visits an endpoint of a changed
// edge are resampled; the Stats counters expose the saving versus full
// recomputation (the GENTI claim).
type WalkMaintainer struct {
	g     *Graph
	r, l  int
	rng   *rand.Rand
	seeds []int
	// walks[si][w] is the path of seed si's w-th walk (length <= l+1).
	walks [][][]int32
	// visits maps node -> set of (seed index, walk index) passing through.
	visits map[int32]map[[2]int32]struct{}

	stats MaintainerStats
}

// MaintainerStats counts maintenance work.
type MaintainerStats struct {
	Events         int // edge events processed
	WalksResampled int // walks regenerated by events
	WalksTotal     int // walks currently maintained
}

// NewWalkMaintainer samples initial walks for the seeds.
func NewWalkMaintainer(g *Graph, seeds []int, walksPerSeed, length int, rng *rand.Rand) (*WalkMaintainer, error) {
	if walksPerSeed < 1 || length < 1 {
		return nil, fmt.Errorf("dynamic: need positive walks and length, got %d/%d", walksPerSeed, length)
	}
	for _, s := range seeds {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("dynamic: seed %d out of range [0,%d)", s, g.N())
		}
	}
	m := &WalkMaintainer{
		g: g, r: walksPerSeed, l: length, rng: rng,
		seeds:  append([]int(nil), seeds...),
		walks:  make([][][]int32, len(seeds)),
		visits: make(map[int32]map[[2]int32]struct{}),
	}
	for si := range m.seeds {
		m.walks[si] = make([][]int32, walksPerSeed)
		for w := 0; w < walksPerSeed; w++ {
			m.resample(si, w)
		}
	}
	m.stats.WalksTotal = len(seeds) * walksPerSeed
	return m, nil
}

// resample regenerates walk (si, w) and updates the inverted index.
func (m *WalkMaintainer) resample(si, w int) {
	key := [2]int32{int32(si), int32(w)}
	for _, node := range m.walks[si][w] {
		if set, ok := m.visits[node]; ok {
			delete(set, key)
			if len(set) == 0 {
				delete(m.visits, node)
			}
		}
	}
	path := make([]int32, 1, m.l+1)
	path[0] = int32(m.seeds[si])
	cur := path[0]
	for t := 0; t < m.l; t++ {
		ns := m.g.Neighbors(int(cur))
		if len(ns) == 0 {
			break
		}
		cur = ns[m.rng.IntN(len(ns))]
		path = append(path, cur)
	}
	m.walks[si][w] = path
	for _, node := range path {
		set, ok := m.visits[node]
		if !ok {
			set = make(map[[2]int32]struct{})
			m.visits[node] = set
		}
		set[key] = struct{}{}
	}
}

// OnEdgeEvent must be called after the graph mutated the edge (u, v); it
// resamples exactly the walks visiting u or v and returns how many.
func (m *WalkMaintainer) OnEdgeEvent(u, v int) int {
	m.stats.Events++
	var affected [][2]int32
	for _, node := range []int32{int32(u), int32(v)} {
		for key := range m.visits[node] {
			affected = append(affected, key)
		}
	}
	// resample draws from the shared RNG, so the walks are resampled in
	// key order, not map order: the result is a function of the seed.
	slices.SortFunc(affected, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	affected = slices.Compact(affected)
	for _, key := range affected {
		m.resample(int(key[0]), int(key[1]))
	}
	m.stats.WalksResampled += len(affected)
	return len(affected)
}

// Walks returns the current walk set of a tracked seed (by seed value).
func (m *WalkMaintainer) Walks(seed int) ([][]int32, error) {
	for si, s := range m.seeds {
		if s == seed {
			return m.walks[si], nil
		}
	}
	return nil, fmt.Errorf("dynamic: seed %d not tracked", seed)
}

// Stats returns maintenance counters.
func (m *WalkMaintainer) Stats() MaintainerStats { return m.stats }

// ResampleFraction returns resampled walks per event divided by the total
// walk count — the locality measure of incremental maintenance (1.0 would
// mean every event forces a full rebuild).
func (m *WalkMaintainer) ResampleFraction() float64 {
	if m.stats.Events == 0 || m.stats.WalksTotal == 0 {
		return 0
	}
	perEvent := float64(m.stats.WalksResampled) / float64(m.stats.Events)
	return perEvent / float64(m.stats.WalksTotal)
}
