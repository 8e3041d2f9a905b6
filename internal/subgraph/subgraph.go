// Package subgraph implements subgraph extraction and storage — tutorial
// §3.3.3. Subgraph-based representation learning (link prediction, relation
// reasoning) needs a subgraph around each queried node or node pair;
// extracting one per query is the throughput bottleneck, so SUREL-style
// systems decompose subgraphs into reusable per-node random-walk sets,
// store them once in a compact sparse form, and assemble query subgraphs by
// joining stored sets.
//
// This package provides:
//
//   - EgoNet: classic k-hop ego-network extraction (the one-shot baseline).
//   - WalkStore: per-seed walk sets with deduplicated node lists and
//     relative positional encodings (landing counts per step), plus the
//     pair-join operation that replaces fresh extraction.
package subgraph

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"scalegnn/internal/graph"
	"scalegnn/internal/par"
	"scalegnn/internal/tensor"
)

// EgoNet extracts the induced subgraph of all nodes within `hops` of
// center, capped at maxNodes nodes (BFS order decides which survive the
// cap; 0 means no cap). Returns the subgraph and original node IDs, center
// first.
func EgoNet(g *graph.CSR, center, hops, maxNodes int) (*graph.CSR, []int, error) {
	if center < 0 || center >= g.N {
		return nil, nil, fmt.Errorf("subgraph: center %d out of range [0,%d)", center, g.N)
	}
	if hops < 0 {
		return nil, nil, fmt.Errorf("subgraph: negative hops %d", hops)
	}
	visited := map[int32]struct{}{int32(center): {}}
	order := []int{center}
	frontier := []int32{int32(center)}
	for h := 0; h < hops; h++ {
		var next []int32
		for _, u := range frontier {
			for _, v := range g.Neighbors(int(u)) {
				if _, ok := visited[v]; ok {
					continue
				}
				visited[v] = struct{}{}
				order = append(order, int(v))
				next = append(next, v)
				if maxNodes > 0 && len(order) >= maxNodes {
					sub, ids := g.InducedSubgraph(order)
					return sub, ids, nil
				}
			}
		}
		frontier = next
	}
	sub, ids := g.InducedSubgraph(order)
	return sub, ids, nil
}

// WalkStoreConfig configures preprocessing.
type WalkStoreConfig struct {
	Walks  int // walks per seed (R)
	Length int // steps per walk (L)
}

// WalkStore holds preprocessed walk sets for a set of seed nodes.
type WalkStore struct {
	g   *graph.CSR
	cfg WalkStoreConfig

	// walks[seed] is the flat R×(L+1) walk matrix (node IDs).
	walks map[int32][]int32
	// nodeSet[seed] is the sorted deduplicated node list of all walks.
	nodeSet map[int32][]int32
	// rpe[seed][node] is the landing-count profile: entry t counts how many
	// of the seed's walks are at `node` at step t, normalized by R — the
	// SUREL relative positional encoding.
	rpe map[int32]map[int32][]float32
}

// NewWalkStore validates the configuration.
func NewWalkStore(g *graph.CSR, cfg WalkStoreConfig) (*WalkStore, error) {
	if cfg.Walks < 1 || cfg.Length < 1 {
		return nil, fmt.Errorf("subgraph: need positive Walks and Length, got %d/%d", cfg.Walks, cfg.Length)
	}
	return &WalkStore{
		g:       g,
		cfg:     cfg,
		walks:   make(map[int32][]int32),
		nodeSet: make(map[int32][]int32),
		rpe:     make(map[int32]map[int32][]float32),
	}, nil
}

// Preprocess samples and stores walk sets for the given seeds. Seeds
// already stored are skipped (incremental preprocessing for streaming
// workloads, the GENTI concern). Intentionally sequential: the walks all
// draw from one caller-provided RNG stream, and splitting that stream
// across workers would change which numbers each walk sees.
func (ws *WalkStore) Preprocess(seeds []int, rng *rand.Rand) error {
	for _, s := range seeds {
		if s < 0 || s >= ws.g.N {
			return fmt.Errorf("subgraph: seed %d out of range [0,%d)", s, ws.g.N)
		}
		seed := int32(s)
		if _, ok := ws.walks[seed]; ok {
			continue
		}
		r, l := ws.cfg.Walks, ws.cfg.Length
		flat := make([]int32, r*(l+1))
		prof := make(map[int32][]float32)
		touch := func(node int32, step int) {
			p, ok := prof[node]
			if !ok {
				p = make([]float32, l+1)
				prof[node] = p
			}
			p[step]++
		}
		for w := 0; w < r; w++ {
			cur := seed
			flat[w*(l+1)] = cur
			touch(cur, 0)
			for t := 1; t <= l; t++ {
				ns := ws.g.Neighbors(int(cur))
				if len(ns) > 0 {
					cur = ns[rng.IntN(len(ns))]
				}
				flat[w*(l+1)+t] = cur
				touch(cur, t)
			}
		}
		invR := float32(1) / float32(r)
		nodes := make([]int32, 0, len(prof))
		for node, p := range prof {
			for t := range p {
				p[t] *= invR
			}
			nodes = append(nodes, node)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		ws.walks[seed] = flat
		ws.nodeSet[seed] = nodes
		ws.rpe[seed] = prof
	}
	return nil
}

// StorageBytes estimates resident index size: walk matrices plus node sets
// plus RPE profiles.
func (ws *WalkStore) StorageBytes() int {
	bytes := 0
	for _, f := range ws.walks {
		bytes += 4 * len(f)
	}
	for _, ns := range ws.nodeSet {
		bytes += 4 * len(ns)
	}
	for _, prof := range ws.rpe {
		for _, p := range prof {
			bytes += 4*len(p) + 16
		}
	}
	return bytes
}

// JoinResult is the assembled query subgraph for a node pair.
type JoinResult struct {
	// Nodes is the union of the two walk node sets (sorted, original IDs).
	Nodes []int32
	// Features is the SUREL joint encoding: for node i, the concatenated
	// landing profiles relative to u and to v (2·(L+1) columns). Nodes never
	// visited from one endpoint have zeros in that half — exactly the
	// signal subgraph models use to tell "close to u only" from "between
	// u and v".
	Features *tensor.Matrix
}

// Join assembles the query structure for the pair (u, v) from stored sets.
// Both endpoints must have been preprocessed.
func (ws *WalkStore) Join(u, v int) (*JoinResult, error) {
	su, ok := ws.nodeSet[int32(u)]
	if !ok {
		return nil, fmt.Errorf("subgraph: seed %d not preprocessed", u)
	}
	sv, ok := ws.nodeSet[int32(v)]
	if !ok {
		return nil, fmt.Errorf("subgraph: seed %d not preprocessed", v)
	}
	union := mergeSorted(su, sv)
	l := ws.cfg.Length
	feats := tensor.New(len(union), 2*(l+1))
	pu, pv := ws.rpe[int32(u)], ws.rpe[int32(v)]
	// Feature assembly reads the two (immutable) RPE profile maps and
	// writes disjoint rows of feats — chunk it over internal/par; output is
	// bitwise identical to the sequential loop.
	par.Range(len(union), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			node := union[i]
			row := feats.Row(i)
			if p, ok := pu[node]; ok {
				for t, c := range p {
					row[t] = float64(c)
				}
			}
			if p, ok := pv[node]; ok {
				for t, c := range p {
					row[l+1+t] = float64(c)
				}
			}
		}
	})
	return &JoinResult{Nodes: union, Features: feats}, nil
}

func mergeSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// ReuseRatio reports, for a batch of preprocessed pair queries, the
// fraction of walk-set fetches served from storage versus total fetches —
// 1.0 means every query reused existing sets. With fresh extraction this
// would be 0; the gap is SUREL's throughput claim.
func ReuseRatio(pairQueries [][2]int, preprocessedBefore map[int]bool) float64 {
	if len(pairQueries) == 0 {
		return 0
	}
	hits, total := 0, 0
	seen := make(map[int]bool, len(preprocessedBefore))
	for k, v := range preprocessedBefore {
		seen[k] = v
	}
	for _, pq := range pairQueries {
		for _, endpoint := range pq {
			total++
			if seen[endpoint] {
				hits++
			}
			seen[endpoint] = true
		}
	}
	return float64(hits) / float64(total)
}
