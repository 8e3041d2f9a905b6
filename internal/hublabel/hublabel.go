// Package hublabel implements 2-hop hub labeling for exact shortest-path
// distance queries via pruned landmark labeling (Akiba, Iwata, Yoshida).
// Tutorial §3.2.2 covers its GNN uses: CFGNN derives a core-fringe
// hierarchy from hub labels, and DHIL-GT uses labels for fast shortest-path
// distance bias queries inside graph Transformers — both need
// exact distances at query rates a per-pair BFS cannot sustain.
//
// The index assigns each node u a label L(u): a list of (hub, dist) pairs
// such that for every pair (s, t), some hub on a shortest s-t path appears
// in both labels. Queries are then a sorted-list merge:
//
//	d(s, t) = min over h in L(s) ∩ L(t) of dist_s(h) + dist_t(h)
//
// Pruned BFS keeps labels small: processing landmarks in descending degree
// order, a BFS from landmark v prunes at any node u whose distance is
// already covered by previously inserted labels.
package hublabel

import (
	"fmt"
	"math"
	"sort"

	"scalegnn/internal/graph"
)

// Infinity is returned by Query for disconnected pairs.
const Infinity = math.MaxInt32

// labelEntry is one (hub, distance) pair; hubs are stored by rank (position
// in the landmark order) so that labels are naturally sorted for merging.
type labelEntry struct {
	hubRank int32
	dist    int32
}

// Index is a built hub-label index.
type Index struct {
	n      int
	order  []int32 // rank -> node
	labels [][]labelEntry
}

// Build constructs the index with pruned BFS from every node in descending
// degree order (the standard landmark ordering: high-degree hubs cover the
// most shortest paths and keep labels short).
func Build(g *graph.CSR) (*Index, error) {
	if g.N == 0 {
		return nil, fmt.Errorf("hublabel: empty graph")
	}
	n := g.N
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(int(order[i])), g.Degree(int(order[j]))
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	ix := &Index{n: n, order: order, labels: make([][]labelEntry, n)}

	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	// rootDist[rank'] caches the root's distance to hub rank' during one
	// BFS, turning the prune query into a single scan of u's label — the
	// standard pruned-landmark-labeling optimization.
	rootDist := make([]int32, n)
	for i := range rootDist {
		rootDist[i] = -1
	}
	var frontier, next, touched []int32
	for rank := 0; rank < n; rank++ {
		root := order[rank]
		for _, e := range ix.labels[root] {
			rootDist[e.hubRank] = e.dist
		}
		frontier = append(frontier[:0], root)
		dist[root] = 0
		touched = append(touched[:0], root)
		for d := int32(0); len(frontier) > 0; d++ {
			next = next[:0]
			for _, u := range frontier {
				// Prune: if existing labels already certify d(root,u) <= d,
				// no new label is needed and the BFS need not expand u.
				if ix.prunedQuery(rootDist, int(u), d) {
					continue
				}
				ix.labels[u] = append(ix.labels[u], labelEntry{hubRank: int32(rank), dist: d})
				for _, v := range g.Neighbors(int(u)) {
					if dist[v] == -1 {
						dist[v] = d + 1
						next = append(next, v)
						touched = append(touched, v)
					}
				}
			}
			frontier, next = next, frontier
		}
		for _, u := range touched {
			dist[u] = -1
		}
		for _, e := range ix.labels[root] {
			rootDist[e.hubRank] = -1
		}
	}
	return ix, nil
}

// prunedQuery reports whether existing labels certify
// d(root, u) <= d, given the root's label scattered into rootDist.
func (ix *Index) prunedQuery(rootDist []int32, u int, d int32) bool {
	for _, e := range ix.labels[u] {
		if rd := rootDist[e.hubRank]; rd >= 0 && rd+e.dist <= d {
			return true
		}
	}
	return false
}

func (ix *Index) mergeQuery(la, lb []labelEntry) int {
	best := Infinity
	i, j := 0, 0
	for i < len(la) && j < len(lb) {
		switch {
		case la[i].hubRank == lb[j].hubRank:
			if d := int(la[i].dist) + int(lb[j].dist); d < best {
				best = d
			}
			i++
			j++
		case la[i].hubRank < lb[j].hubRank:
			i++
		default:
			j++
		}
	}
	return best
}

// Query returns the exact shortest-path distance between s and t, or
// Infinity when they are disconnected.
func (ix *Index) Query(s, t int) (int, error) {
	if s < 0 || s >= ix.n || t < 0 || t >= ix.n {
		return 0, fmt.Errorf("hublabel: query (%d,%d) out of range [0,%d)", s, t, ix.n)
	}
	if s == t {
		return 0, nil
	}
	return ix.mergeQuery(ix.labels[s], ix.labels[t]), nil
}

// TotalEntries returns the total label entries across all nodes — the index
// size measure reported in the E7 experiment.
func (ix *Index) TotalEntries() int {
	total := 0
	for _, l := range ix.labels {
		total += len(l)
	}
	return total
}

// AvgLabelSize returns the mean label entries per node.
func (ix *Index) AvgLabelSize() float64 {
	if ix.n == 0 {
		return 0
	}
	return float64(ix.TotalEntries()) / float64(ix.n)
}

// DistanceMatrix materializes pairwise distances among the given nodes
// (DHIL-GT's SPD bias for a Transformer attention block over a node batch).
// Entry (i, j) is the hop distance between nodes[i] and nodes[j], or
// Infinity when disconnected.
func (ix *Index) DistanceMatrix(nodes []int) ([][]int, error) {
	out := make([][]int, len(nodes))
	for i := range nodes {
		out[i] = make([]int, len(nodes))
		for j := range nodes {
			if i == j {
				continue
			}
			d, err := ix.Query(nodes[i], nodes[j])
			if err != nil {
				return nil, err
			}
			out[i][j] = d
		}
	}
	return out, nil
}
