// Package partition implements the graph partitioning algorithms of
// tutorial §3.1.2: the model-agnostic path to GNN scalability that divides
// a graph into device-sized subgraphs for mini-batch or distributed
// training, optimizing the computation/communication trade-off.
//
// Implemented partitioners:
//
//   - Hash: random assignment (the no-information baseline).
//   - LDG (Linear Deterministic Greedy, Stanton-Kliot): streaming
//     assignment favoring the part holding the most neighbors, with a
//     multiplicative balance penalty.
//   - Fennel (Tsourakakis et al.): streaming assignment with an additive
//     α·γ·|part|^{γ-1} balance cost — the single-pass approximation of
//     modularity-style objectives.
//   - Multilevel: coarsen (heavy-edge matching), partition the small graph
//     greedily, project back and refine with Kernighan-Lin style boundary
//     moves — the METIS recipe.
//
// Quality is measured by edge cut, balance factor, and the communication
// volume a distributed GNN layer would incur (§3.1.4's "minimize and
// balance computation and communication").
package partition

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"

	"scalegnn/internal/coarsen"
	"scalegnn/internal/graph"
	"scalegnn/internal/obs"
	"scalegnn/internal/par"
	"scalegnn/internal/tensor"
)

// Assignment is a node → part mapping with its part count.
type Assignment struct {
	Parts []int
	K     int
}

// validateK rejects nonsensical part counts.
func validateK(g *graph.CSR, k int) error {
	if k < 1 {
		return fmt.Errorf("partition: k=%d < 1", k)
	}
	if g.N == 0 {
		return fmt.Errorf("partition: empty graph")
	}
	return nil
}

// Hash assigns nodes to parts uniformly at random.
func Hash(g *graph.CSR, k int, rng *rand.Rand) (*Assignment, error) {
	if err := validateK(g, k); err != nil {
		return nil, err
	}
	parts := make([]int, g.N)
	for i := range parts {
		parts[i] = rng.IntN(k)
	}
	return &Assignment{Parts: parts, K: k}, nil
}

// LDG streams nodes in a random order, assigning each to
// argmax_p |N(v) ∩ P_p| · (1 − |P_p|/cap), with capacity cap = n/k·slack.
func LDG(g *graph.CSR, k int, slack float64, rng *rand.Rand) (*Assignment, error) {
	if err := validateK(g, k); err != nil {
		return nil, err
	}
	if slack < 1 {
		return nil, fmt.Errorf("partition: slack %v < 1", slack)
	}
	sp := obs.Start("partition.ldg")
	sp.SetCount(int64(g.N))
	defer sp.End()
	capacity := slack * float64(g.N) / float64(k)
	parts := make([]int, g.N)
	for i := range parts {
		parts[i] = -1
	}
	sizes := make([]float64, k)
	neighborCount := make([]float64, k)
	for _, u := range tensor.Perm(g.N, rng) {
		for i := range neighborCount {
			neighborCount[i] = 0
		}
		for _, v := range g.Neighbors(u) {
			if p := parts[v]; p >= 0 {
				neighborCount[p]++
			}
		}
		best, bestScore := 0, math.Inf(-1)
		for p := 0; p < k; p++ {
			if sizes[p] >= capacity {
				continue
			}
			score := neighborCount[p] * (1 - sizes[p]/capacity)
			if score > bestScore {
				best, bestScore = p, score
			}
		}
		parts[u] = best
		sizes[best]++
	}
	return &Assignment{Parts: parts, K: k}, nil
}

// Fennel streams nodes in a random order with the Fennel objective:
// argmax_p |N(v) ∩ P_p| − α·γ·|P_p|^{γ−1}, using the paper's defaults
// γ = 1.5, α = m·(k^{γ-1})/n^γ.
func Fennel(g *graph.CSR, k int, rng *rand.Rand) (*Assignment, error) {
	if err := validateK(g, k); err != nil {
		return nil, err
	}
	sp := obs.Start("partition.fennel")
	sp.SetCount(int64(g.N))
	defer sp.End()
	const gamma = 1.5
	m := float64(g.NumEdges()) / 2
	n := float64(g.N)
	alpha := m * math.Pow(float64(k), gamma-1) / math.Pow(n, gamma)
	// Hard cap keeps worst-case balance bounded, as in the original paper.
	capacity := 1.1 * n / float64(k)
	parts := make([]int, g.N)
	for i := range parts {
		parts[i] = -1
	}
	sizes := make([]float64, k)
	neighborCount := make([]float64, k)
	for _, u := range tensor.Perm(g.N, rng) {
		for i := range neighborCount {
			neighborCount[i] = 0
		}
		for _, v := range g.Neighbors(u) {
			if p := parts[v]; p >= 0 {
				neighborCount[p]++
			}
		}
		best, bestScore := 0, math.Inf(-1)
		for p := 0; p < k; p++ {
			if sizes[p] >= capacity {
				continue
			}
			score := neighborCount[p] - float64(alpha*gamma*math.Pow(sizes[p], gamma-1))
			if score > bestScore {
				best, bestScore = p, score
			}
		}
		parts[u] = best
		sizes[best]++
	}
	return &Assignment{Parts: parts, K: k}, nil
}

// Multilevel partitions by coarsening to ~coarseTarget nodes with heavy-edge
// matching, greedily partitioning the coarse graph (balanced BFS regions),
// projecting the assignment back, and running `refineRounds` of
// Kernighan-Lin style single-node boundary refinement at the fine level.
func Multilevel(g *graph.CSR, k, coarseTarget, refineRounds int, rng *rand.Rand) (*Assignment, error) {
	if err := validateK(g, k); err != nil {
		return nil, err
	}
	if coarseTarget < k {
		coarseTarget = k
	}
	sp := obs.Start("partition.multilevel")
	sp.SetCount(int64(g.N))
	defer sp.End()
	res, err := coarsen.Coarsen(g, coarseTarget, coarsen.HeavyEdge, rng)
	if err != nil {
		return nil, fmt.Errorf("partition: coarsening: %w", err)
	}
	coarseParts := greedyGrow(res.Coarse, k, rng)
	parts := make([]int, g.N)
	for u, c := range res.Assign {
		parts[u] = coarseParts[c]
	}
	a := &Assignment{Parts: parts, K: k}
	for r := 0; r < refineRounds; r++ {
		if moved := refineOnce(g, a); moved == 0 {
			break
		}
	}
	return a, nil
}

// greedyGrow seeds k BFS fronts at random nodes and grows them one node at
// a time, always extending the currently smallest part — a simple balanced
// region-growing initial partition.
func greedyGrow(g *graph.CSR, k int, rng *rand.Rand) []int {
	parts := make([]int, g.N)
	for i := range parts {
		parts[i] = -1
	}
	queues := make([][]int32, k)
	sizes := make([]int, k)
	perm := tensor.Perm(g.N, rng)
	next := 0
	seed := func(p int) bool {
		for next < len(perm) {
			u := perm[next]
			next++
			if parts[u] == -1 {
				parts[u] = p
				sizes[p]++
				queues[p] = append(queues[p], int32(u))
				return true
			}
		}
		return false
	}
	for p := 0; p < k; p++ {
		seed(p)
	}
	assigned := 0
	for _, p := range parts {
		if p >= 0 {
			assigned++
		}
	}
	for assigned < g.N {
		// Pick the smallest part that can still grow.
		p := 0
		for q := 1; q < k; q++ {
			if sizes[q] < sizes[p] {
				p = q
			}
		}
		grew := false
		for len(queues[p]) > 0 && !grew {
			u := queues[p][0]
			queues[p] = queues[p][1:]
			for _, v := range g.Neighbors(int(u)) {
				if parts[v] == -1 {
					parts[v] = p
					sizes[p]++
					queues[p] = append(queues[p], v)
					assigned++
					grew = true
					break
				}
			}
			if grew {
				queues[p] = append(queues[p], u) // u may have more frontier
			}
		}
		if !grew {
			// Frontier exhausted (disconnected): reseed this part.
			if seed(p) {
				assigned++
			} else {
				break
			}
		}
	}
	// Any stragglers (fully isolated nodes): round-robin.
	for u := range parts {
		if parts[u] == -1 {
			parts[u] = u % k
		}
	}
	return parts
}

// refineOnce performs one pass of greedy boundary refinement: each node may
// move to the neighboring part with the largest cut gain, provided the move
// does not worsen balance beyond 10% slack. Returns the number of moves.
func refineOnce(g *graph.CSR, a *Assignment) int {
	sizes := make([]int, a.K)
	for _, p := range a.Parts {
		sizes[p]++
	}
	maxSize := int(1.1*float64(g.N)/float64(a.K)) + 1
	moved := 0
	gain := make([]int, a.K)
	for u := 0; u < g.N; u++ {
		cur := a.Parts[u]
		if sizes[cur] <= 1 {
			continue
		}
		for i := range gain {
			gain[i] = 0
		}
		for _, v := range g.Neighbors(u) {
			gain[a.Parts[v]]++
		}
		best, bestGain := cur, gain[cur]
		for p := 0; p < a.K; p++ {
			if p == cur || sizes[p] >= maxSize {
				continue
			}
			if gain[p] > bestGain {
				best, bestGain = p, gain[p]
			}
		}
		if best != cur {
			a.Parts[u] = best
			sizes[cur]--
			sizes[best]++
			moved++
		}
	}
	return moved
}

// Quality summarizes a partition for the E3 experiment.
type Quality struct {
	EdgeCut int     // undirected edges crossing parts
	CutFrac float64 // EdgeCut / total undirected edges
	// Balance is max part size / ideal size (1.0 = perfect).
	Balance float64
	// CommVolume is Σ_v |{parts ≠ part(v) containing a neighbor of v}| —
	// the number of node-feature transfers one distributed GNN layer needs.
	CommVolume int
}

// Evaluate computes partition quality metrics.
func Evaluate(g *graph.CSR, a *Assignment) Quality {
	sp := obs.Start("partition.evaluate")
	sp.SetCount(int64(g.N))
	defer sp.End()
	var q Quality
	sizes := make([]int, a.K)
	for _, p := range a.Parts {
		sizes[p]++
	}
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	ideal := float64(g.N) / float64(a.K)
	if ideal > 0 {
		q.Balance = float64(maxSize) / ideal
	}
	// Every metric here is an integer sum over nodes, so the scan chunks
	// over internal/par with per-chunk counters merged through atomics —
	// integer addition is order-exact, keeping the totals identical to the
	// sequential scan.
	var totalEdges, edgeCut, commVolume atomic.Int64
	par.Range(g.N, 256, func(lo, hi int) {
		var edges, cut, vol int64
		seen := make(map[int]struct{}, a.K)
		for u := lo; u < hi; u++ {
			clear(seen)
			pu := a.Parts[u]
			for _, v := range g.Neighbors(u) {
				if int(v) > u {
					edges++
					if a.Parts[v] != pu {
						cut++
					}
				}
				if pv := a.Parts[v]; pv != pu {
					seen[pv] = struct{}{}
				}
			}
			vol += int64(len(seen))
		}
		totalEdges.Add(edges)
		edgeCut.Add(cut)
		commVolume.Add(vol)
	})
	q.EdgeCut = int(edgeCut.Load())
	q.CommVolume = int(commVolume.Load())
	if totalEdges.Load() > 0 {
		q.CutFrac = float64(q.EdgeCut) / float64(totalEdges.Load())
	}
	return q
}

// Subgraphs materializes the per-part induced subgraphs with their original
// node IDs — the Cluster-GCN batch construction.
func Subgraphs(g *graph.CSR, a *Assignment) ([]*graph.CSR, [][]int) {
	sp := obs.Start("partition.subgraphs")
	sp.SetCount(int64(a.K))
	defer sp.End()
	members := make([][]int, a.K)
	for u, p := range a.Parts {
		members[p] = append(members[p], u)
	}
	// Each part's induced subgraph is built independently into its own
	// slot — chunk parts over internal/par (bitwise-identical outputs).
	subs := make([]*graph.CSR, a.K)
	ids := make([][]int, a.K)
	par.Range(a.K, 1, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			subs[p], ids[p] = g.InducedSubgraph(members[p])
		}
	})
	return subs, ids
}
