// Package sampling implements the graph sampling strategies of tutorial
// §3.3.2, organized by the scope of sample selection exactly as the
// tutorial categorizes them:
//
//   - Node-level: GraphSAGE-style uniform neighbor fan-out per target node.
//   - Layer-level: FastGCN-style importance sampling of a fixed node budget
//     per layer, and LABOR-style dependent sampling that couples the random
//     choices of overlapping neighborhoods to cut the number of unique
//     sampled nodes at equal per-node variance.
//
// Every estimator targets the mean-aggregation operator
// (P_rw X)_u = (1/deg u) Σ_{v∈N(u)} X_v and is unbiased; the package also
// ships the variance-measurement harness used by experiment E4.
package sampling

import (
	"fmt"
	"math"
	"math/rand/v2"

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

// blockBuilder is the one place a Block is assembled. It owns what every
// sampler's output has in common — sources deduplicated Dsts-first in
// first-seen order, and all destinations' neighbour indices and weights in
// two flat arrays — so a sampler is only its selection rule.
type blockBuilder struct {
	dsts  []int32
	srcs  []int32
	local map[int32]int32 // global id -> position in srcs
	idx   []int32         // sampled edges of all destinations, as positions in srcs
	w     []float64       // parallel importance weights
	ends  []int           // ends[i] = len(idx) once destination i is done
}

// buildBlock runs sel once per destination that has neighbours; sel keeps
// an edge by calling add. perDst, the number of edges sel expects to keep
// per destination, only sizes the flat arrays: they grow past it.
func buildBlock(g *graph.CSR, dsts []int32, perDst int, sel func(bb *blockBuilder, ns []int32)) *Block {
	edges := 0
	for _, d := range dsts {
		edges += min(perDst, g.Degree(int(d)))
	}
	bb := &blockBuilder{
		dsts:  dsts,
		srcs:  make([]int32, 0, len(dsts)+edges),
		local: make(map[int32]int32, len(dsts)*4),
		idx:   make([]int32, 0, edges),
		w:     make([]float64, 0, edges),
		ends:  make([]int, len(dsts)),
	}
	for _, d := range dsts {
		bb.localID(d)
	}
	for i, d := range dsts {
		if ns := g.Neighbors(int(d)); len(ns) > 0 {
			sel(bb, ns)
		}
		bb.ends[i] = len(bb.idx)
	}
	return bb.finish()
}

func (bb *blockBuilder) localID(v int32) int32 {
	if i, ok := bb.local[v]; ok {
		return i
	}
	i := int32(len(bb.srcs))
	bb.srcs = append(bb.srcs, v)
	bb.local[v] = i
	return i
}

// add keeps the edge from source v, with weight w, for the destination
// being built.
func (bb *blockBuilder) add(v int32, w float64) {
	bb.idx = append(bb.idx, bb.localID(v))
	bb.w = append(bb.w, w)
}

// finish carves the flat arrays into per-destination slices whose capacity
// ends where the next destination begins, so a consumer's append copies
// instead of overwriting a neighbour's edges.
func (bb *blockBuilder) finish() *Block {
	b := &Block{
		Dsts:   bb.dsts,
		Srcs:   bb.srcs,
		Neigh:  make([][]int32, len(bb.dsts)),
		Weight: make([][]float64, len(bb.dsts)),
	}
	lo := 0
	for i, hi := range bb.ends {
		b.Neigh[i] = bb.idx[lo:hi:hi]
		b.Weight[i] = bb.w[lo:hi:hi]
		lo = hi
	}
	return b
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
	var scratch []int32
	return buildBlock(s.G, dsts, s.Fanout, func(bb *blockBuilder, ns []int32) {
		deg, k := len(ns), s.Fanout
		if k >= deg {
			// Take all neighbors exactly: zero sampling variance.
			w := 1 / float64(deg)
			for _, v := range ns {
				bb.add(v, w)
			}
			return
		}
		// Partial Fisher-Yates for k draws without replacement.
		if cap(scratch) < deg {
			scratch = make([]int32, deg)
		}
		scratch = scratch[:deg]
		copy(scratch, ns)
		w := 1 / float64(k)
		for j := 0; j < k; j++ {
			pick := j + rng.IntN(deg-j)
			scratch[j], scratch[pick] = scratch[pick], scratch[j]
			bb.add(scratch[j], w)
		}
	})
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
	// Shared variates, drawn lazily per source node.
	variates := make(map[int32]float64)
	return inclusionBlock(s.G, dsts, s.Fanout, func(v int32) float64 {
		r, ok := variates[v]
		if !ok {
			r = rng.Float64()
			variates[v] = r
		}
		return r
	})
}

// inclusionBlock is Poisson sampling with budget k: destination u keeps
// neighbour v iff variate(v) ≤ π = min(1, k/deg u), with the
// Horvitz-Thompson weight (1/deg)·(1/π). Where the variate comes from —
// shared per source or fresh per edge — is all that separates LABOR from
// its independent baseline.
func inclusionBlock(g *graph.CSR, dsts []int32, fanout int, variate func(v int32) float64) *Block {
	return buildBlock(g, dsts, fanout, func(bb *blockBuilder, ns []int32) {
		deg := float64(len(ns))
		pi := min(1, float64(fanout)/deg)
		w := (1 / deg) / pi
		for _, v := range ns {
			if variate(v) <= pi {
				bb.add(v, w)
			}
		}
	})
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
	return inclusionBlock(s.G, dsts, s.Fanout, func(int32) float64 { return rng.Float64() })
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

// exactBlock returns the no-sampling block (all neighbors, exact weights) —
// the full-graph baseline against which estimator variance is measured. It
// is the node-level sampler with a fan-out no degree reaches, which draws
// no variates.
func exactBlock(g *graph.CSR, dsts []int32) *Block {
	return (&NeighborSampler{G: g, Fanout: math.MaxInt}).SampleBlock(dsts, nil)
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
	aggregate := func(b *Block) *tensor.Matrix {
		idx := make([]int, len(b.Srcs))
		for i, v := range b.Srcs {
			idx[i] = int(v)
		}
		return b.Aggregate(x.SelectRows(idx))
	}
	exact := aggregate(exactBlock(g, dsts))
	var sse, bias, uniq float64
	count := 0
	for t := 0; t < trials; t++ {
		blk := s.SampleBlock(dsts, rng)
		est := aggregate(blk)
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
