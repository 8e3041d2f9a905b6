// Package coarsen implements graph coarsening — tutorial §3.3.4. Coarsening
// contracts nodes into supernodes, producing a smaller graph that shares
// structural (and, for the spectral-aware variants, spectral) properties
// with the original, so a GNN can train on the coarse graph at a fraction
// of the time and memory cost.
//
// The package provides multilevel matching-based coarsening with three
// matching strategies (random, heavy-edge, normalized heavy-edge — the
// structure-/spectral-based split of the tutorial), feature/label
// projection, and lifting of coarse predictions back to the original nodes.
package coarsen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

// Strategy selects how contraction pairs are chosen at each level.
type Strategy int

const (
	// RandomMatching contracts uniformly random adjacent pairs (baseline).
	RandomMatching Strategy = iota
	// HeavyEdge contracts pairs connected by the heaviest edges first —
	// the classic structure-preserving multilevel heuristic (METIS-style).
	HeavyEdge
	// NormalizedHeavyEdge ranks edges by w/√(deg u · deg v), approximately
	// preserving the normalized Laplacian (spectral-aware coarsening).
	NormalizedHeavyEdge
)

func (s Strategy) String() string {
	switch s {
	case RandomMatching:
		return "random"
	case HeavyEdge:
		return "heavy-edge"
	case NormalizedHeavyEdge:
		return "normalized-heavy-edge"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Result is a completed coarsening.
type Result struct {
	// Coarse is the contracted graph; edge weights accumulate the original
	// inter-cluster edge weights.
	Coarse *graph.CSR
	// Assign maps each original node to its coarse node.
	Assign []int
	// Levels is the number of matching rounds performed.
	Levels int
	// ClusterSize[c] is the number of original nodes inside coarse node c.
	ClusterSize []int
}

// Coarsen contracts g until it has at most targetNodes nodes (or no further
// matching is possible), using the given strategy. Each level performs one
// maximal matching and contracts every matched pair.
func Coarsen(g *graph.CSR, targetNodes int, strategy Strategy, rng *rand.Rand) (*Result, error) {
	if targetNodes < 1 {
		return nil, fmt.Errorf("coarsen: target %d < 1", targetNodes)
	}
	if !g.Undirected() {
		return nil, fmt.Errorf("coarsen: requires an undirected graph")
	}
	cur := g
	assign := make([]int, g.N)
	for i := range assign {
		assign[i] = i
	}
	levels := 0
	for cur.N > targetNodes {
		match := matchLevel(cur, strategy, rng)
		next, mapping, contracted := contract(cur, match)
		if contracted == 0 {
			break // no adjacent pairs left to merge
		}
		for i := range assign {
			assign[i] = mapping[assign[i]]
		}
		cur = next
		levels++
	}
	sizes := make([]int, cur.N)
	for _, c := range assign {
		sizes[c]++
	}
	return &Result{Coarse: cur, Assign: assign, Levels: levels, ClusterSize: sizes}, nil
}

// matchLevel computes a maximal matching: match[u] = v means u and v merge
// (match[u] == u means unmatched this round).
func matchLevel(g *graph.CSR, strategy Strategy, rng *rand.Rand) []int32 {
	match := make([]int32, g.N)
	for i := range match {
		match[i] = int32(i)
	}
	order := tensor.Perm(g.N, rng)
	deg := g.Degrees()
	for _, u := range order {
		if match[u] != int32(u) {
			continue
		}
		ns := g.Neighbors(u)
		ws := g.NeighborWeights(u)
		best := int32(-1)
		var bestScore float64
		for i, v := range ns {
			if int(v) == u || match[v] != v {
				continue
			}
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			var score float64
			switch strategy {
			case RandomMatching:
				score = rng.Float64()
			case HeavyEdge:
				score = w
			case NormalizedHeavyEdge:
				score = w / math.Sqrt(float64(deg[u])*float64(deg[v]))
			}
			if best == -1 || score > bestScore {
				best, bestScore = v, score
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = int32(u)
		}
	}
	return match
}

// contract merges matched pairs into single nodes, returning the coarse
// graph, the fine→coarse mapping, and the number of contractions.
func contract(g *graph.CSR, match []int32) (*graph.CSR, []int, int) {
	mapping := make([]int, g.N)
	next := 0
	contracted := 0
	for u := 0; u < g.N; u++ {
		v := int(match[u])
		if v < u {
			mapping[u] = mapping[v] // partner already numbered
			continue
		}
		mapping[u] = next
		if v != u {
			contracted++
		}
		next++
	}
	b := graph.NewBuilder(next)
	for _, e := range g.UndirectedEdges() {
		cu, cv := mapping[e.U], mapping[e.V]
		if cu == cv {
			continue // internal edge disappears
		}
		b.AddWeightedEdge(cu, cv, e.W)
	}
	coarse := b.MustBuild()
	return coarse, mapping, contracted
}

// ProjectFeatures mean-pools fine node features into coarse nodes.
func ProjectFeatures(x *tensor.Matrix, assign []int, nCoarse int) *tensor.Matrix {
	out := tensor.New(nCoarse, x.Cols)
	counts := make([]float64, nCoarse)
	for u, c := range assign {
		counts[c]++
		row := out.Row(c)
		for j, v := range x.Row(u) {
			row[j] += v
		}
	}
	for c := 0; c < nCoarse; c++ {
		if counts[c] > 0 {
			inv := 1 / counts[c]
			row := out.Row(c)
			for j := range row {
				row[j] *= inv
			}
		}
	}
	return out
}

// ProjectLabels assigns each coarse node the majority label of its members
// (ties go to the smaller label). Unlabeled members (label < 0) are
// ignored; a cluster with no labeled member gets -1.
func ProjectLabels(labels []int, assign []int, nCoarse, numClasses int) []int {
	counts := make([][]int, nCoarse)
	for i := range counts {
		counts[i] = make([]int, numClasses)
	}
	hasAny := make([]bool, nCoarse)
	for u, c := range assign {
		if labels[u] >= 0 && labels[u] < numClasses {
			counts[c][labels[u]]++
			hasAny[c] = true
		}
	}
	out := make([]int, nCoarse)
	for c := range out {
		if !hasAny[c] {
			out[c] = -1
			continue
		}
		best := 0
		for k := 1; k < numClasses; k++ {
			if counts[c][k] > counts[c][best] {
				best = k
			}
		}
		out[c] = best
	}
	return out
}

// LiftLabels broadcasts coarse integer predictions back to fine nodes.
func LiftLabels(coarse []int, assign []int) []int {
	out := make([]int, len(assign))
	for u, c := range assign {
		out[u] = coarse[c]
	}
	return out
}
