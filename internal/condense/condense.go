// Package condense implements spectral graph condensation — the
// GDEM/GC-SNTK line of tutorial §3.3.4. Where coarsening contracts matched
// node pairs level by level, condensation directly synthesizes a small
// training graph that matches the original's low-frequency eigenbasis:
//
//  1. Compute the bottom-k Laplacian eigenvectors (top-k of P) by subspace
//     iteration — the geometry GDEM's eigenbasis-matching objective
//     preserves.
//  2. Cluster nodes in that spectral embedding (k-means) to the target
//     size, so condensed nodes correspond to smooth regions of the graph.
//  3. Aggregate adjacency between clusters into the condensed graph, and
//     project features (mean pooling) and labels (train-only majority).
//
// Training on the condensed graph and lifting predictions back (reusing
// the coarsen projection/lift operators) gives the condensation trade:
// much smaller training graphs, bounded accuracy loss.
package condense

import (
	"fmt"
	"math"
	"math/rand/v2"

	"scalegnn/internal/graph"
	"scalegnn/internal/par"
	"scalegnn/internal/spectral"
	"scalegnn/internal/tensor"
)

// Config controls condensation.
type Config struct {
	// TargetNodes is the condensed graph size.
	TargetNodes int
	// EigenK is the number of low-frequency eigenvectors to match
	// (default 8).
	EigenK int
	// PowerIters controls the subspace iteration count (default 100).
	PowerIters int
	// LloydIters controls k-means refinement rounds (default 15).
	LloydIters int
}

func (c *Config) fillDefaults() {
	if c.EigenK == 0 {
		c.EigenK = 8
	}
	if c.PowerIters == 0 {
		c.PowerIters = 100
	}
	if c.LloydIters == 0 {
		c.LloydIters = 15
	}
}

// Result is a completed condensation; Assign maps original nodes to
// condensed nodes, so the coarsen package's projection and lifting
// operators apply directly.
type Result struct {
	Condensed *graph.CSR
	Assign    []int
	// Embedding is the n×k spectral embedding used for clustering.
	Embedding *tensor.Matrix
	// EigenValues are the matched top-k eigenvalues of P (descending).
	EigenValues []float64
}

// Condense synthesizes the condensed graph.
func Condense(g *graph.CSR, cfg Config, rng *rand.Rand) (*Result, error) {
	cfg.fillDefaults()
	if cfg.TargetNodes < 2 || cfg.TargetNodes >= g.N {
		return nil, fmt.Errorf("condense: target %d outside [2,%d)", cfg.TargetNodes, g.N)
	}
	if !g.Undirected() {
		return nil, fmt.Errorf("condense: requires an undirected graph")
	}
	if cfg.EigenK > g.N {
		cfg.EigenK = g.N
	}
	op := graph.NewOperator(g, graph.NormSymmetric, true)
	vals, vecs, err := spectral.SubspaceIteration(op, cfg.EigenK, cfg.PowerIters, rng)
	if err != nil {
		return nil, fmt.Errorf("condense: eigenbasis: %w", err)
	}
	// Row-normalize the embedding (spectral clustering convention) so
	// k-means separates by direction, not by degree-driven magnitude.
	emb := vecs.Clone()
	for i := 0; i < emb.Rows; i++ {
		tensor.Normalize(emb.Row(i))
	}
	assign := kmeans(emb, cfg.TargetNodes, cfg.LloydIters, rng)

	// Aggregate inter-cluster adjacency.
	b := graph.NewBuilder(cfg.TargetNodes)
	for _, e := range g.UndirectedEdges() {
		ca, cb := assign[e.U], assign[e.V]
		if ca == cb {
			continue
		}
		b.AddWeightedEdge(ca, cb, e.W)
	}
	condensed, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("condense: build: %w", err)
	}
	return &Result{
		Condensed:   condensed,
		Assign:      assign,
		Embedding:   emb,
		EigenValues: vals,
	}, nil
}

// kmeans clusters the rows of emb into k groups with Lloyd's algorithm
// (k-means++-style farthest-first seeding, deterministic given rng).
// Every cluster is guaranteed non-empty: emptied clusters are reseeded
// with the point farthest from its centroid.
func kmeans(emb *tensor.Matrix, k, iters int, rng *rand.Rand) []int {
	n, d := emb.Rows, emb.Cols
	centroids := tensor.New(k, d)
	// Farthest-first seeding.
	first := rng.IntN(n)
	copy(centroids.Row(0), emb.Row(first))
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = dist2(emb.Row(i), centroids.Row(0))
	}
	for c := 1; c < k; c++ {
		best, bestD := 0, -1.0
		for i := 0; i < n; i++ {
			if minDist[i] > bestD {
				best, bestD = i, minDist[i]
			}
		}
		copy(centroids.Row(c), emb.Row(best))
		// Each minDist[i] update is independent — chunk over internal/par
		// (bitwise-identical: same per-element comparison either way).
		par.Range(n, 256, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if d2 := dist2(emb.Row(i), centroids.Row(c)); d2 < minDist[i] {
					minDist[i] = d2
				}
			}
		})
	}
	assign := make([]int, n)
	counts := make([]int, k)
	for it := 0; it < iters; it++ {
		// Assignment step: each assign[i] depends only on emb and the
		// centroids, so chunk it over internal/par; counts are tallied
		// sequentially afterwards so the result matches the sequential
		// loop bit for bit.
		par.Range(n, 256, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				best, bestD := 0, math.Inf(1)
				row := emb.Row(i)
				for c := 0; c < k; c++ {
					if d2 := dist2(row, centroids.Row(c)); d2 < bestD {
						best, bestD = c, d2
					}
				}
				assign[i] = best
			}
		})
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < n; i++ {
			counts[assign[i]]++
		}
		// Reseed empty clusters with the globally farthest point.
		for c := 0; c < k; c++ {
			if counts[c] > 0 {
				continue
			}
			best, bestD := 0, -1.0
			for i := 0; i < n; i++ {
				if counts[assign[i]] <= 1 {
					continue // don't empty another cluster
				}
				if d2 := dist2(emb.Row(i), centroids.Row(assign[i])); d2 > bestD {
					best, bestD = i, d2
				}
			}
			counts[assign[best]]--
			assign[best] = c
			counts[c] = 1
			copy(centroids.Row(c), emb.Row(best))
		}
		// Update step.
		centroids.Zero()
		for i := 0; i < n; i++ {
			crow := centroids.Row(assign[i])
			for j, v := range emb.Row(i) {
				crow[j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] > 0 {
				inv := 1 / float64(counts[c])
				for j := range centroids.Row(c) {
					centroids.Row(c)[j] *= inv
				}
			}
		}
	}
	return assign
}

func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
