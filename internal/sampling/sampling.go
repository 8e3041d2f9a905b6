// Package sampling implements the graph sampling strategies of tutorial
// §3.3.2, organized by the scope of sample selection exactly as the
// tutorial categorizes them:
//
//   - Node-level: GraphSAGE-style uniform neighbor fan-out per target node.
//   - Layer-level: FastGCN-style importance sampling of a fixed node budget
//     per layer, and LABOR-style dependent sampling that couples the random
//     choices of overlapping neighborhoods to cut the number of unique
//     sampled nodes at equal per-node variance.
//   - Subgraph-level: GraphSAINT-style random-walk and edge samplers that
//     extract a training subgraph per batch.
//
// Every estimator targets the mean-aggregation operator
// (P_rw X)_u = (1/deg u) Σ_{v∈N(u)} X_v and is unbiased; the package also
// ships the variance-measurement harness used by experiment E4.
package sampling

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"scalegnn/internal/graph"
	"scalegnn/internal/obs"
	"scalegnn/internal/tensor"
)

// Block is one layer of a sampled computation graph: for each destination
// node, the sampled source neighbors (by position in Srcs) with importance
// weights. Blocks are consumed innermost-first by mini-batch GNN trainers.
type Block struct {
	// Dsts are the global IDs of the nodes whose aggregation this block
	// estimates.
	Dsts []int32
	// Srcs are the global IDs feeding the aggregation. By construction
	// Srcs always begins with Dsts (self features are needed by SAGE-style
	// concatenation).
	Srcs []int32
	// Neigh[i] lists the sampled in-neighbors of Dsts[i] as indices into
	// Srcs; Weight[i][j] is the importance weight of that edge in the
	// unbiased mean estimate.
	Neigh  [][]int32
	Weight [][]float64
}

// NumUniqueSrcs returns the number of distinct source nodes the block
// touches — the memory/compute cost measure the LABOR comparison uses.
func (b *Block) NumUniqueSrcs() int { return len(b.Srcs) }

// Aggregate computes the estimated mean aggregation for every dst given
// the feature rows of Srcs (row i of srcFeats corresponds to Srcs[i]).
func (b *Block) Aggregate(srcFeats *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(len(b.Dsts), srcFeats.Cols)
	for i := range b.Dsts {
		row := out.Row(i)
		for j, s := range b.Neigh[i] {
			tensor.F64Axpy(b.Weight[i][j], srcFeats.Row(int(s)), row)
		}
	}
	return out
}

// uniqueMap builds the Srcs slice: dsts first, then newly discovered nodes
// in first-seen order, returning the global->local index map.
type uniqueMap struct {
	srcs  []int32
	index map[int32]int32
}

func newUniqueMap(dsts []int32) *uniqueMap {
	m := &uniqueMap{index: make(map[int32]int32, len(dsts)*4)}
	for _, d := range dsts {
		m.add(d)
	}
	return m
}

func (m *uniqueMap) add(v int32) int32 {
	if i, ok := m.index[v]; ok {
		return i
	}
	i := int32(len(m.srcs))
	m.srcs = append(m.srcs, v)
	m.index[v] = i
	return i
}

// NeighborSampler is the node-level (GraphSAGE) strategy: every target node
// independently draws up to Fanout neighbors uniformly without replacement.
type NeighborSampler struct {
	G      *graph.CSR
	Fanout int
}

// NewNeighborSampler validates and constructs a node-level sampler.
func NewNeighborSampler(g *graph.CSR, fanout int) (*NeighborSampler, error) {
	if fanout < 1 {
		return nil, fmt.Errorf("sampling: fanout %d < 1", fanout)
	}
	return &NeighborSampler{G: g, Fanout: fanout}, nil
}

// SampleBlock draws one block for the given destination nodes.
func (s *NeighborSampler) SampleBlock(dsts []int32, rng *rand.Rand) *Block {
	um := newUniqueMap(dsts)
	b := &Block{
		Dsts:   dsts,
		Neigh:  make([][]int32, len(dsts)),
		Weight: make([][]float64, len(dsts)),
	}
	var scratch []int32
	for i, d := range dsts {
		ns := s.G.Neighbors(int(d))
		deg := len(ns)
		if deg == 0 {
			continue
		}
		k := s.Fanout
		if k >= deg {
			// Take all neighbors exactly: zero sampling variance.
			b.Neigh[i] = make([]int32, deg)
			b.Weight[i] = make([]float64, deg)
			for j, v := range ns {
				b.Neigh[i][j] = um.add(v)
				b.Weight[i][j] = 1 / float64(deg)
			}
			continue
		}
		// Partial Fisher-Yates for k draws without replacement.
		if cap(scratch) < deg {
			scratch = make([]int32, deg)
		}
		scratch = scratch[:deg]
		copy(scratch, ns)
		b.Neigh[i] = make([]int32, k)
		b.Weight[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			pick := j + rng.IntN(deg-j)
			scratch[j], scratch[pick] = scratch[pick], scratch[j]
			b.Neigh[i][j] = um.add(scratch[j])
			b.Weight[i][j] = 1 / float64(k)
		}
	}
	b.Srcs = um.srcs
	return b
}

// SampleLayers draws a multi-layer computation graph for a batch: blocks[0]
// is the outermost layer (aggregating into the batch nodes); each deeper
// block aggregates into the previous block's sources — the recursive
// expansion whose cost growth is the "neighborhood explosion" of §3.1.3.
func (s *NeighborSampler) SampleLayers(batch []int32, layers int, rng *rand.Rand) []*Block {
	// The span's count is the innermost frontier size — the per-batch cost
	// figure the neighborhood-explosion curves plot.
	sp := obs.Start("sampling.layers")
	blocks := make([]*Block, layers)
	dsts := batch
	for l := 0; l < layers; l++ {
		blocks[l] = s.SampleBlock(dsts, rng)
		dsts = blocks[l].Srcs
	}
	sp.SetCount(int64(len(dsts)))
	sp.End()
	return blocks
}

// LaborSampler is the layer-level dependent sampler modeled on LABOR: all
// destination nodes of a layer share one uniform variate r_v per source
// node, and destination u includes neighbor v iff r_v ≤ k/deg(u). Inclusion
// probabilities (and hence per-node variance) match independent Poisson
// sampling with the same budget, but shared variates make overlapping
// neighborhoods select the same sources, shrinking the union of sampled
// nodes — the claim tested in E4.
type LaborSampler struct {
	G      *graph.CSR
	Fanout int
}

// NewLaborSampler validates and constructs a LABOR-style sampler.
func NewLaborSampler(g *graph.CSR, fanout int) (*LaborSampler, error) {
	if fanout < 1 {
		return nil, fmt.Errorf("sampling: fanout %d < 1", fanout)
	}
	return &LaborSampler{G: g, Fanout: fanout}, nil
}

// SampleBlock draws one dependent-sampled block for the destinations.
func (s *LaborSampler) SampleBlock(dsts []int32, rng *rand.Rand) *Block {
	um := newUniqueMap(dsts)
	b := &Block{
		Dsts:   dsts,
		Neigh:  make([][]int32, len(dsts)),
		Weight: make([][]float64, len(dsts)),
	}
	// Shared variates, drawn lazily per source node.
	variates := make(map[int32]float64)
	rOf := func(v int32) float64 {
		if r, ok := variates[v]; ok {
			return r
		}
		r := rng.Float64()
		variates[v] = r
		return r
	}
	for i, d := range dsts {
		ns := s.G.Neighbors(int(d))
		deg := len(ns)
		if deg == 0 {
			continue
		}
		pi := float64(s.Fanout) / float64(deg)
		if pi > 1 {
			pi = 1
		}
		invDeg := 1 / float64(deg)
		for _, v := range ns {
			if rOf(v) <= pi {
				b.Neigh[i] = append(b.Neigh[i], um.add(v))
				// Horvitz-Thompson weight: (1/deg)·(1/π).
				b.Weight[i] = append(b.Weight[i], invDeg/pi)
			}
		}
	}
	b.Srcs = um.srcs
	return b
}

// PoissonSampler is the independent-variate baseline for LaborSampler: the
// same per-edge inclusion probability min(1, k/deg(u)), but with a fresh
// uniform draw per (dst, src) pair. Identical marginal estimator variance;
// strictly more unique sources.
type PoissonSampler struct {
	G      *graph.CSR
	Fanout int
}

// NewPoissonSampler validates and constructs the independent baseline.
func NewPoissonSampler(g *graph.CSR, fanout int) (*PoissonSampler, error) {
	if fanout < 1 {
		return nil, fmt.Errorf("sampling: fanout %d < 1", fanout)
	}
	return &PoissonSampler{G: g, Fanout: fanout}, nil
}

// SampleBlock draws one independently-sampled block.
func (s *PoissonSampler) SampleBlock(dsts []int32, rng *rand.Rand) *Block {
	um := newUniqueMap(dsts)
	b := &Block{
		Dsts:   dsts,
		Neigh:  make([][]int32, len(dsts)),
		Weight: make([][]float64, len(dsts)),
	}
	for i, d := range dsts {
		ns := s.G.Neighbors(int(d))
		deg := len(ns)
		if deg == 0 {
			continue
		}
		pi := float64(s.Fanout) / float64(deg)
		if pi > 1 {
			pi = 1
		}
		invDeg := 1 / float64(deg)
		for _, v := range ns {
			if rng.Float64() <= pi {
				b.Neigh[i] = append(b.Neigh[i], um.add(v))
				b.Weight[i] = append(b.Weight[i], invDeg/pi)
			}
		}
	}
	b.Srcs = um.srcs
	return b
}

// BlockSampler is implemented by all per-layer samplers in this package.
type BlockSampler interface {
	SampleBlock(dsts []int32, rng *rand.Rand) *Block
}

var (
	_ BlockSampler = (*NeighborSampler)(nil)
	_ BlockSampler = (*LaborSampler)(nil)
	_ BlockSampler = (*PoissonSampler)(nil)
)

// ExactBlock returns the no-sampling block (all neighbors, exact weights) —
// the full-graph baseline against which estimator variance is measured.
func ExactBlock(g *graph.CSR, dsts []int32) *Block {
	um := newUniqueMap(dsts)
	b := &Block{
		Dsts:   dsts,
		Neigh:  make([][]int32, len(dsts)),
		Weight: make([][]float64, len(dsts)),
	}
	for i, d := range dsts {
		ns := g.Neighbors(int(d))
		if len(ns) == 0 {
			continue
		}
		w := 1 / float64(len(ns))
		b.Neigh[i] = make([]int32, len(ns))
		b.Weight[i] = make([]float64, len(ns))
		for j, v := range ns {
			b.Neigh[i][j] = um.add(v)
			b.Weight[i][j] = w
		}
	}
	b.Srcs = um.srcs
	return b
}

// VarianceReport summarizes an estimator-quality measurement.
type VarianceReport struct {
	MeanSquaredError float64 // average squared deviation from the exact aggregation
	MeanBias         float64 // average signed deviation (≈0 for unbiased samplers)
	AvgUniqueSrcs    float64 // average unique sources per trial (cost proxy)
}

// MeasureVariance runs `trials` independent samples of the given sampler on
// the destination set and compares the estimated aggregation of features x
// against the exact mean aggregation.
func MeasureVariance(g *graph.CSR, x *tensor.Matrix, s BlockSampler, dsts []int32, trials int, rng *rand.Rand) VarianceReport {
	exactBlk := ExactBlock(g, dsts)
	exact := exactBlk.Aggregate(selectRows(x, exactBlk.Srcs))
	var sse, bias, uniq float64
	count := 0
	for t := 0; t < trials; t++ {
		blk := s.SampleBlock(dsts, rng)
		est := blk.Aggregate(selectRows(x, blk.Srcs))
		uniq += float64(blk.NumUniqueSrcs())
		for i := 0; i < est.Rows; i++ {
			for j := 0; j < est.Cols; j++ {
				d := est.At(i, j) - exact.At(i, j)
				sse += d * d
				bias += d
				count++
			}
		}
	}
	return VarianceReport{
		MeanSquaredError: sse / float64(count),
		MeanBias:         bias / float64(count),
		AvgUniqueSrcs:    uniq / float64(trials),
	}
}

func selectRows(x *tensor.Matrix, ids []int32) *tensor.Matrix {
	idx := make([]int, len(ids))
	for i, v := range ids {
		idx[i] = int(v)
	}
	return x.SelectRows(idx)
}

// SortedCopy returns a sorted copy of node IDs; helper shared by tests and
// subgraph extraction.
func SortedCopy(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AggregateBackward is the adjoint of Aggregate: given ∂L/∂(aggregated
// output) it returns ∂L/∂(source features), scattering each weighted
// contribution back to the source rows. Used by mini-batch GNN trainers.
func (b *Block) AggregateBackward(gradOut *tensor.Matrix) *tensor.Matrix {
	gradSrc := tensor.New(len(b.Srcs), gradOut.Cols)
	for i := range b.Dsts {
		grow := gradOut.Row(i)
		for j, s := range b.Neigh[i] {
			tensor.F64Axpy(b.Weight[i][j], grow, gradSrc.Row(int(s)))
		}
	}
	return gradSrc
}
