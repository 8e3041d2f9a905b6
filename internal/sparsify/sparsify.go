// Package sparsify implements graph sparsification — tutorial §3.3.1. It
// removes edges while preserving the properties GNN propagation depends on,
// trading a controlled amount of accuracy for proportionally less
// propagation work.
//
// Implemented schemes, from coarse to fine:
//
//   - Uniform: keep each edge with probability p, reweighting survivors by
//     1/p (unbiased in expectation; the baseline).
//   - TopKPerNode: rank-based pruning keeping each node's k strongest
//     incident edges (the fine-grained, node-personalized maneuver of
//     ATP/NIGCN-style methods).
package sparsify

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"scalegnn/internal/graph"
)

// Uniform keeps each undirected edge independently with probability keep,
// scaling surviving weights by 1/keep so the expected adjacency is
// preserved.
func Uniform(g *graph.CSR, keep float64, rng *rand.Rand) (*graph.CSR, error) {
	if keep <= 0 || keep > 1 {
		return nil, fmt.Errorf("sparsify: keep fraction %v outside (0,1]", keep)
	}
	if !g.Undirected() {
		return nil, fmt.Errorf("sparsify: Uniform requires an undirected graph")
	}
	b := graph.NewBuilder(g.N)
	scale := 1 / keep
	for _, e := range g.UndirectedEdges() {
		if rng.Float64() < keep {
			b.AddWeightedEdge(e.U, e.V, e.W*scale)
		}
	}
	return b.Build()
}

// TopKPerNode keeps, for every node, its k incident edges with the largest
// weight (ties by neighbor ID); an edge survives if either endpoint ranks
// it. Deterministic, node-personalized pruning.
func TopKPerNode(g *graph.CSR, k int) (*graph.CSR, error) {
	if k < 1 {
		return nil, fmt.Errorf("sparsify: k %d < 1", k)
	}
	if !g.Undirected() {
		return nil, fmt.Errorf("sparsify: TopKPerNode requires an undirected graph")
	}
	type ranked struct {
		v int32
		w float64
	}
	keep := make(map[int64]struct{})
	key := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)*int64(g.N) + int64(v)
	}
	buf := make([]ranked, 0, g.MaxDegree())
	for u := 0; u < g.N; u++ {
		ns := g.Neighbors(u)
		ws := g.NeighborWeights(u)
		buf = buf[:0]
		for i, v := range ns {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			buf = append(buf, ranked{v: v, w: w})
		}
		sort.Slice(buf, func(i, j int) bool {
			if buf[i].w != buf[j].w {
				return buf[i].w > buf[j].w
			}
			return buf[i].v < buf[j].v
		})
		kk := k
		if kk > len(buf) {
			kk = len(buf)
		}
		for _, r := range buf[:kk] {
			keep[key(u, int(r.v))] = struct{}{}
		}
	}
	b := graph.NewBuilder(g.N)
	for _, e := range g.UndirectedEdges() {
		if _, ok := keep[key(e.U, e.V)]; ok {
			b.AddWeightedEdge(e.U, e.V, e.W)
		}
	}
	return b.Build()
}

// QuadraticFormError measures the relative error of the sparsifier H
// against the original G on Laplacian quadratic forms xᵀLx over `trials`
// random Gaussian vectors — the spectral-sparsification quality metric
// (ε such that x L_H x ∈ (1±ε)·x L_G x on the probes).
func QuadraticFormError(g, h *graph.CSR, trials int, rng *rand.Rand) float64 {
	if g.N != h.N {
		panic("sparsify: node-count mismatch")
	}
	var worst float64
	for t := 0; t < trials; t++ {
		x := make([]float64, g.N)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		qg := laplacianQuadratic(g, x)
		qh := laplacianQuadratic(h, x)
		if qg == 0 {
			continue
		}
		if e := math.Abs(qg-qh) / qg; e > worst {
			worst = e
		}
	}
	return worst
}

// laplacianQuadratic computes xᵀ L x = Σ_{(u,v)∈E} w_uv (x_u − x_v)².
func laplacianQuadratic(g *graph.CSR, x []float64) float64 {
	var s float64
	for _, e := range g.UndirectedEdges() {
		d := x[e.U] - x[e.V]
		s += e.W * d * d
	}
	return s
}

// PropagationSpeedup reports the ratio of arc counts |E_G| / |E_H| — the
// direct propagation-cost saving of a sparsifier, since every propagation
// touches each arc once.
func PropagationSpeedup(g, h *graph.CSR) float64 {
	if h.NumEdges() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(h.NumEdges())
}
