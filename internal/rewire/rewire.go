// Package rewire implements similarity-based graph rewiring — the DHGR
// approach from tutorial §3.2.2: measure node-pair relevance (structural
// SimRank and/or attribute cosine), add edges between strongly similar
// pairs, and optionally drop edges between dissimilar endpoints. On
// heterophilous graphs this raises the effective edge homophily so that
// ordinary low-pass GNNs work again, while staying compatible with
// subgraph-based batch training because each node's rewiring is a local
// top-k query.
package rewire

import (
	"fmt"
	"sort"

	"scalegnn/internal/graph"
	"scalegnn/internal/simrank"
	"scalegnn/internal/tensor"
)

// Config controls the rewiring process.
type Config struct {
	// AddK edges are added per node, to its top-K most similar candidates.
	AddK int
	// PruneBelow drops an existing edge when the endpoint similarity is
	// below this value (0 disables pruning).
	PruneBelow float64
	// AddedWeight is the weight given to added edges (default 1).
	AddedWeight float64
}

func (c Config) validate() error {
	if c.AddK < 0 {
		return fmt.Errorf("rewire: negative AddK %d", c.AddK)
	}
	if c.PruneBelow < 0 {
		return fmt.Errorf("rewire: negative PruneBelow %v", c.PruneBelow)
	}
	if c.AddK == 0 && c.PruneBelow == 0 {
		return fmt.Errorf("rewire: nothing to do (AddK=0, PruneBelow=0)")
	}
	return nil
}

// Similarity scores node pairs; implementations must be symmetric in
// expectation. Query returns similarity scores of `a` against all nodes.
type Similarity interface {
	Query(a int) ([]float64, error)
}

// SimRankSimilarity adapts a simrank.Index.
type SimRankSimilarity struct{ Index *simrank.Index }

// Query implements Similarity.
func (s SimRankSimilarity) Query(a int) ([]float64, error) { return s.Index.SingleSource(a) }

// CosineSimilarity scores by attribute cosine against L2-normalized
// feature rows, restricted to 2-hop candidates for scalability (exactly
// the locality DHGR exploits: candidates come from the topology, scores
// from the attributes).
type CosineSimilarity struct {
	G *graph.CSR
	X *tensor.Matrix

	normalized *tensor.Matrix
}

// NewCosineSimilarity precomputes row-normalized features.
func NewCosineSimilarity(g *graph.CSR, x *tensor.Matrix) *CosineSimilarity {
	norm := x.Clone()
	for i := 0; i < norm.Rows; i++ {
		tensor.Normalize(norm.Row(i))
	}
	return &CosineSimilarity{G: g, X: x, normalized: norm}
}

// Query implements Similarity: cosine against 2-hop candidates only
// (others score 0).
func (s *CosineSimilarity) Query(a int) ([]float64, error) {
	if a < 0 || a >= s.G.N {
		return nil, fmt.Errorf("rewire: node %d out of range [0,%d)", a, s.G.N)
	}
	scores := make([]float64, s.G.N)
	arow := s.normalized.Row(a)
	seen := map[int32]struct{}{int32(a): {}}
	score := func(v int32) {
		if _, ok := seen[v]; ok {
			return
		}
		seen[v] = struct{}{}
		c := tensor.Dot(arow, s.normalized.Row(int(v)))
		if c > 0 {
			scores[v] = c
		}
	}
	for _, u := range s.G.Neighbors(a) {
		score(u)
		for _, v := range s.G.Neighbors(int(u)) {
			score(v)
		}
	}
	return scores, nil
}

// Result reports what the rewiring changed.
type Result struct {
	G       *graph.CSR
	Added   int // undirected edges added
	Pruned  int // undirected edges removed
	Queried int // similarity queries issued
}

// Rewire applies the configuration to g using the similarity measure.
func Rewire(g *graph.CSR, sim Similarity, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !g.Undirected() {
		return nil, fmt.Errorf("rewire: requires an undirected graph")
	}
	addW := cfg.AddedWeight
	if addW == 0 {
		addW = 1
	}
	type key = int64
	mk := func(u, v int) key {
		if u > v {
			u, v = v, u
		}
		return int64(u)*int64(g.N) + int64(v)
	}
	keep := make(map[key]float64) // surviving original edges
	add := make(map[key]struct{}) // new edges
	res := &Result{}
	for _, e := range g.UndirectedEdges() {
		keep[mk(e.U, e.V)] = e.W
	}
	for a := 0; a < g.N; a++ {
		scores, err := sim.Query(a)
		if err != nil {
			return nil, fmt.Errorf("rewire: query %d: %w", a, err)
		}
		res.Queried++
		if cfg.PruneBelow > 0 {
			for _, v := range g.Neighbors(a) {
				if scores[v] < cfg.PruneBelow {
					k := mk(a, int(v))
					if _, ok := keep[k]; ok {
						delete(keep, k)
						res.Pruned++
					}
				}
			}
		}
		if cfg.AddK > 0 {
			top := topKExcluding(scores, a, cfg.AddK, g)
			for _, v := range top {
				k := mk(a, v)
				if _, exists := keep[k]; exists {
					continue
				}
				if _, exists := add[k]; exists {
					continue
				}
				add[k] = struct{}{}
				res.Added++
			}
		}
	}
	b := graph.NewBuilder(g.N)
	for k, w := range keep {
		b.AddWeightedEdge(int(k/int64(g.N)), int(k%int64(g.N)), w)
	}
	for k := range add {
		b.AddWeightedEdge(int(k/int64(g.N)), int(k%int64(g.N)), addW)
	}
	out, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("rewire: rebuild: %w", err)
	}
	res.G = out
	return res, nil
}

// topKExcluding returns up to k node IDs with the highest positive scores,
// excluding a itself and its existing neighbors.
func topKExcluding(scores []float64, a, k int, g *graph.CSR) []int {
	type entry struct {
		v int
		s float64
	}
	var cands []entry
	for v, s := range scores {
		if v == a || s <= 0 || g.HasEdge(a, v) {
			continue
		}
		cands = append(cands, entry{v, s})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].s != cands[j].s {
			return cands[i].s > cands[j].s
		}
		return cands[i].v < cands[j].v
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].v
	}
	return out
}
