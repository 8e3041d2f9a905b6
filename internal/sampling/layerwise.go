package sampling

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"scalegnn/internal/graph"
)

// FastGCNSampler implements layer-level importance sampling: each layer
// draws a fixed budget of source nodes from the whole graph with
// probability proportional to degree (the FastGCN importance
// q(v) ∝ ‖P(:,v)‖², which for the mean-aggregation operator is
// degree-dominated), independent of the destination set. The estimator is
// the Horvitz-Thompson correction of the restricted aggregation.
type FastGCNSampler struct {
	G      *graph.CSR
	Budget int // source nodes per layer

	alias aliasTable // q(v) = deg(v) / arcs
}

// NewFastGCNSampler precomputes the importance distribution.
func NewFastGCNSampler(g *graph.CSR, budget int) (*FastGCNSampler, error) {
	if budget < 1 {
		return nil, fmt.Errorf("sampling: budget %d < 1", budget)
	}
	total := float64(g.NumEdges())
	if total == 0 {
		return nil, fmt.Errorf("sampling: FastGCN on empty graph")
	}
	probs := make([]float64, g.N)
	for v := 0; v < g.N; v++ {
		probs[v] = float64(g.Degree(v)) / total
	}
	return &FastGCNSampler{G: g, Budget: budget, alias: newAliasTable(probs)}, nil
}

// SampleBlock draws `Budget` sources i.i.d. from q (with replacement, as in
// FastGCN) and wires every destination to its sampled neighbors.
func (s *FastGCNSampler) SampleBlock(dsts []int32, rng *rand.Rand) *Block {
	// Draw the layer-wide sample and count multiplicity.
	mult := make(map[int32]int, s.Budget)
	for i := 0; i < s.Budget; i++ {
		mult[int32(s.alias.draw(rng))]++
	}
	return wireDrawn(s.G, dsts, mult, s.Budget, float64(s.G.NumEdges()))
}

var _ BlockSampler = (*FastGCNSampler)(nil)

// wireDrawn connects every destination u to those of its neighbours v that
// the layer-wide draw hit, with the Horvitz-Thompson weight
// m(v) / (deg(u) · t · q(v)) for t draws of which m(v) landed on v. Both
// layer-wise samplers draw degree-proportionally, q(v) = deg(v)/qTotal;
// they differ in the candidate set and hence in qTotal.
func wireDrawn(g *graph.CSR, dsts []int32, mult map[int32]int, budget int, qTotal float64) *Block {
	t := float64(budget)
	return buildBlock(g, dsts, 0, func(bb *blockBuilder, ns []int32) {
		deg := float64(len(ns))
		for _, v := range ns {
			if m, ok := mult[v]; ok {
				bb.add(v, float64(m)/(deg*t*(float64(g.Degree(int(v)))/qTotal)))
			}
		}
	})
}

// aliasTable supports O(1) sampling from a discrete distribution
// (Vose's alias method) — the data structure behind every
// degree-proportional draw in this package.
type aliasTable struct {
	prob  []float64
	alias []int
}

func newAliasTable(probs []float64) aliasTable {
	n := len(probs)
	t := aliasTable{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range probs {
		scaled[i] = p * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small {
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t
}

func (t aliasTable) draw(rng *rand.Rand) int {
	i := rng.IntN(len(t.prob))
	if rng.Float64() < t.prob[i] {
		return i
	}
	return t.alias[i]
}

// ReceptiveField returns the number of distinct nodes reachable within L
// hops of the batch — the exact size of the computation graph a full
// (unsampled) L-layer GNN must materialize for this batch. E1's
// neighborhood-explosion curve is this quantity as a function of L.
func ReceptiveField(g *graph.CSR, batch []int32, layers int) int {
	seen := make(map[int32]struct{}, len(batch)*4)
	frontier := make([]int32, 0, len(batch))
	for _, v := range batch {
		seen[v] = struct{}{}
		frontier = append(frontier, v)
	}
	for l := 0; l < layers; l++ {
		var next []int32
		for _, u := range frontier {
			for _, v := range g.Neighbors(int(u)) {
				if _, ok := seen[v]; !ok {
					seen[v] = struct{}{}
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return len(seen)
}

// SampledFieldSize measures the total unique sources across the sampled
// multi-layer computation graph drawn by a NeighborSampler — the quantity
// that stays bounded when sampling caps the explosion.
func SampledFieldSize(s *NeighborSampler, batch []int32, layers int, rng *rand.Rand) int {
	blocks := s.SampleLayers(batch, layers, rng)
	return blocks[len(blocks)-1].NumUniqueSrcs()
}

// LadiesSampler is the layer-dependent variant of importance sampling:
// like FastGCN it draws a fixed per-layer budget, but candidates are
// restricted to the union of the destinations' neighborhoods, so no draw
// is wasted on nodes that cannot contribute (the LADIES refinement).
type LadiesSampler struct {
	G      *graph.CSR
	Budget int
}

// NewLadiesSampler validates and constructs the sampler.
func NewLadiesSampler(g *graph.CSR, budget int) (*LadiesSampler, error) {
	if budget < 1 {
		return nil, fmt.Errorf("sampling: budget %d < 1", budget)
	}
	return &LadiesSampler{G: g, Budget: budget}, nil
}

// SampleBlock draws Budget sources from the dsts' neighborhood union with
// probability proportional to degree (restricted), wiring edges with
// Horvitz-Thompson weights.
func (s *LadiesSampler) SampleBlock(dsts []int32, rng *rand.Rand) *Block {
	// Candidate set: union of neighborhoods.
	candSet := make(map[int32]struct{})
	for _, d := range dsts {
		for _, v := range s.G.Neighbors(int(d)) {
			candSet[v] = struct{}{}
		}
	}
	if len(candSet) == 0 {
		return wireDrawn(s.G, dsts, nil, s.Budget, 0)
	}
	cands := make([]int32, 0, len(candSet))
	for v := range candSet {
		cands = append(cands, v)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	probs := make([]float64, len(cands))
	var total float64
	for i, v := range cands {
		probs[i] = float64(s.G.Degree(int(v)))
		total += probs[i]
	}
	for i := range probs {
		probs[i] /= total
	}
	at := newAliasTable(probs)
	mult := make(map[int32]int, s.Budget)
	for i := 0; i < s.Budget; i++ {
		mult[cands[at.draw(rng)]]++
	}
	return wireDrawn(s.G, dsts, mult, s.Budget, total)
}

var _ BlockSampler = (*LadiesSampler)(nil)
