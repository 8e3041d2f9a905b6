// Package graph implements the graph storage substrate for scalegnn: an
// immutable CSR (compressed sparse row) adjacency structure, builders,
// normalized propagation operators, synthetic graph generators, and
// edge-list serialization.
//
// Everything downstream — PPR, spectral filters, samplers, sparsifiers,
// coarseners, partitioners, and the GNN models — operates on *graph.CSR.
// The representation is the classic data-management layout for graph
// analytics: two int32 slices (offsets + targets) and an optional parallel
// weight slice, giving O(1) neighbor-range lookup and cache-friendly scans.
package graph

import (
	"fmt"
	"sort"
)

// CSR is an immutable graph in compressed sparse row form.
//
// For node u, its out-neighbors are Adj[Offsets[u]:Offsets[u+1]] with
// parallel weights Weights[Offsets[u]:Offsets[u+1]] (Weights may be nil for
// an unweighted graph, in which case every edge has weight 1). Undirected
// graphs store each edge in both directions.
type CSR struct {
	N       int       // number of nodes
	Offsets []int64   // length N+1, Offsets[0] == 0
	Adj     []int32   // length M (directed edge count)
	Weights []float64 // nil, or length M

	undirected bool

	// applyHook, when non-nil, intercepts ApplyInto on every operator
	// derived from this graph (see ApplyHook). It is runtime wiring for
	// the distributed trainer, not graph data: the topology above stays
	// immutable.
	applyHook ApplyHook
}

// SetApplyHook installs (or, with nil, removes) the propagation hook for
// this graph. Not safe to call concurrently with propagation; install the
// hook before training starts.
func (g *CSR) SetApplyHook(h ApplyHook) { g.applyHook = h }

// NumEdges returns the number of stored directed edges (arcs). For an
// undirected graph this is twice the number of undirected edges.
func (g *CSR) NumEdges() int { return len(g.Adj) }

// Undirected reports whether the graph was built as undirected (every edge
// stored in both directions).
func (g *CSR) Undirected() bool { return g.undirected }

// Degree returns the out-degree of node u.
func (g *CSR) Degree(u int) int {
	return int(g.Offsets[u+1] - g.Offsets[u])
}

// Neighbors returns the out-neighbor slice of node u. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *CSR) Neighbors(u int) []int32 {
	return g.Adj[g.Offsets[u]:g.Offsets[u+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(u), or nil for
// an unweighted graph.
func (g *CSR) NeighborWeights(u int) []float64 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.Offsets[u]:g.Offsets[u+1]]
}

// EdgeWeight returns the weight of the k-th arc (position in Adj).
func (g *CSR) EdgeWeight(k int) float64 {
	if g.Weights == nil {
		return 1
	}
	return g.Weights[k]
}

// HasEdge reports whether the arc u->v exists, using binary search over the
// sorted neighbor list.
func (g *CSR) HasEdge(u, v int) bool {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(v) })
	return i < len(ns) && ns[i] == int32(v)
}

// WeightedDegree returns the sum of edge weights out of u (the out-degree
// for unweighted graphs).
func (g *CSR) WeightedDegree(u int) float64 {
	if g.Weights == nil {
		return float64(g.Degree(u))
	}
	var s float64
	for _, w := range g.NeighborWeights(u) {
		s += w
	}
	return s
}

// Degrees returns the out-degree of every node.
func (g *CSR) Degrees() []int {
	d := make([]int, g.N)
	for u := range d {
		d[u] = g.Degree(u)
	}
	return d
}

// MaxDegree returns the largest out-degree in the graph, or 0 when empty.
func (g *CSR) MaxDegree() int {
	var max int
	for u := 0; u < g.N; u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// Edge is a weighted arc used by builders and serialization.
type Edge struct {
	U, V int
	W    float64
}

// Builder accumulates edges and produces a CSR. It deduplicates parallel
// edges (summing their weights) and drops self-loops unless KeepSelfLoops
// is set.
type Builder struct {
	N             int
	Directed      bool
	KeepSelfLoops bool
	edges         []Edge
}

// NewBuilder returns a Builder for a graph with n nodes. By default the
// graph is undirected and self-loops are dropped.
func NewBuilder(n int) *Builder { return &Builder{N: n} }

// AddEdge records an edge with weight 1.
func (b *Builder) AddEdge(u, v int) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records an edge with the given weight.
func (b *Builder) AddWeightedEdge(u, v int, w float64) {
	b.edges = append(b.edges, Edge{U: u, V: v, W: w})
}

// Build validates and finalizes the CSR. Endpoints must lie in [0, N).
// Parallel edges are merged by summing weights in insertion order; the
// result is unweighted (nil Weights) only if every merged weight is
// exactly 1.
func (b *Builder) Build() (*CSR, error) {
	for _, e := range b.edges {
		if e.U < 0 || e.U >= b.N || e.V < 0 || e.V >= b.N {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, b.N)
		}
	}
	// One record per kept edge. An undirected edge is keyed by its
	// canonical (min,max) endpoints and summed once, in insertion order, so
	// its two arcs carry the same weight whichever way round its parallel
	// copies were written.
	es := make([]Edge, 0, len(b.edges))
	for _, e := range b.edges {
		if e.U == e.V && !b.KeepSelfLoops {
			continue
		}
		if !b.Directed && e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		es = append(es, e)
	}
	// Two stable counting passes, by V and then by U, leave es in (U, V,
	// insertion) order: the order that fixes each parallel-edge sum.
	pos := make([]int64, b.N+1)
	tmp := make([]Edge, len(es))
	sortByEndpoint(tmp, es, pos, false)
	sortByEndpoint(es, tmp, pos, true)
	merged := es[:0]
	for _, e := range es {
		if n := len(merged); n > 0 && merged[n-1].U == e.U && merged[n-1].V == e.V {
			merged[n-1].W += e.W
			continue
		}
		merged = append(merged, e)
	}

	g := &CSR{N: b.N, Offsets: make([]int64, b.N+1), undirected: !b.Directed}
	mirrored := func(e Edge) bool { return !b.Directed && e.U != e.V }
	weighted := false
	for _, e := range merged {
		g.Offsets[e.U+1]++
		if mirrored(e) {
			g.Offsets[e.V+1]++
		}
		weighted = weighted || e.W != 1
	}
	for u := 0; u < b.N; u++ {
		g.Offsets[u+1] += g.Offsets[u]
	}
	g.Adj = make([]int32, g.Offsets[b.N])
	if weighted {
		g.Weights = make([]float64, len(g.Adj))
	}
	// merged is sorted by (U,V) with U <= V on mirrored edges, so row x
	// receives its smaller neighbours (as V, while the groups U < x pass)
	// before its larger ones (as U, in V order): every row comes out sorted.
	next := pos[:b.N]
	copy(next, g.Offsets)
	put := func(u, v int, w float64) {
		g.Adj[next[u]] = int32(v)
		if weighted {
			g.Weights[next[u]] = w
		}
		next[u]++
	}
	for _, e := range merged {
		put(e.U, e.V, e.W)
		if mirrored(e) {
			put(e.V, e.U, e.W)
		}
	}
	return g, nil
}

// sortByEndpoint moves src into dst stably ordered by U (byU) or by V, one
// counting pass; pos is scratch of length N+1.
func sortByEndpoint(dst, src []Edge, pos []int64, byU bool) {
	key := func(e Edge) int {
		if byU {
			return e.U
		}
		return e.V
	}
	clear(pos)
	for _, e := range src {
		pos[key(e)+1]++
	}
	for k := 1; k < len(pos); k++ {
		pos[k] += pos[k-1]
	}
	for _, e := range src {
		k := key(e)
		dst[pos[k]] = e
		pos[k]++
	}
}

// MustBuild is Build but panics on error; intended for tests and generators
// whose inputs are valid by construction.
func (b *Builder) MustBuild() *CSR {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds an undirected unweighted CSR directly from an edge list.
func FromEdges(n int, edges [][2]int) (*CSR, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Edges returns all stored arcs as an Edge slice (u, v, weight). For an
// undirected graph each edge appears twice (both directions).
func (g *CSR) Edges() []Edge {
	out := make([]Edge, 0, len(g.Adj))
	for u := 0; u < g.N; u++ {
		ws := g.NeighborWeights(u)
		for i, v := range g.Neighbors(u) {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			out = append(out, Edge{U: u, V: int(v), W: w})
		}
	}
	return out
}

// UndirectedEdges returns each undirected edge once (u <= v). Self-loops —
// stored as a single arc by Builder when KeepSelfLoops is set — are included
// exactly once, matching Edges; earlier versions silently dropped them here
// (v > u) while keeping them in Edges. It panics on a directed graph.
func (g *CSR) UndirectedEdges() []Edge {
	if !g.undirected {
		panic("graph: UndirectedEdges on directed graph")
	}
	// A self-loop contributes one arc, a proper edge two: with L loops the
	// exact undirected edge count is (len(Adj)-L)/2 + L, not len(Adj)/2.
	loops := 0
	for u := 0; u < g.N; u++ {
		if g.HasEdge(u, u) {
			loops++
		}
	}
	out := make([]Edge, 0, (len(g.Adj)-loops)/2+loops)
	for u := 0; u < g.N; u++ {
		ws := g.NeighborWeights(u)
		for i, v := range g.Neighbors(u) {
			if int(v) >= u {
				w := 1.0
				if ws != nil {
					w = ws[i]
				}
				out = append(out, Edge{U: u, V: int(v), W: w})
			}
		}
	}
	return out
}

// InducedSubgraph returns the subgraph induced by nodes (which need not be
// sorted), plus the mapping from new index to original node ID. Edges with
// both endpoints in the set are kept with their weights.
func (g *CSR) InducedSubgraph(nodes []int) (*CSR, []int) {
	inv := make(map[int]int, len(nodes))
	ids := make([]int, len(nodes))
	for i, u := range nodes {
		inv[u] = i
		ids[i] = u
	}
	b := NewBuilder(len(nodes))
	b.Directed = !g.undirected
	for i, u := range ids {
		ws := g.NeighborWeights(u)
		for k, v := range g.Neighbors(u) {
			j, ok := inv[int(v)]
			if !ok {
				continue
			}
			// For undirected graphs, add each edge once to avoid doubling.
			if g.undirected && j < i {
				continue
			}
			w := 1.0
			if ws != nil {
				w = ws[k]
			}
			b.AddWeightedEdge(i, j, w)
		}
	}
	return b.MustBuild(), ids
}

// ConnectedComponents labels each node with a component ID (0-based,
// ordered by first-seen node) and returns the labels and component count.
// Directed graphs are treated as undirected for this purpose only if they
// were built undirected; otherwise this yields weakly-connected components
// of the stored arcs' underlying adjacency.
func (g *CSR) ConnectedComponents() ([]int, int) {
	comp := make([]int, g.N)
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	next := 0
	for s := 0; s < g.N; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(int(u)) {
				if comp[v] == -1 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return comp, next
}

// BFSDistances returns hop distances from src to every node (-1 when
// unreachable).
func (g *CSR) BFSDistances(src int) []int {
	dist := make([]int, g.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []int32{int32(src)}
	for len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			du := dist[u]
			for _, v := range g.Neighbors(int(u)) {
				if dist[v] == -1 {
					dist[v] = du + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}
