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
	"scalegnn/internal/par"
	"scalegnn/internal/tensor"
)

// Block is one layer of a sampled computation graph: a rectangular CSR
// with one row per destination node and one column per source node — the
// layout of graph.CSR, with |Dsts| rows and |Srcs| columns. Row i's edges
// are Idx[Offsets[i]:Offsets[i+1]] (positions in Srcs) with importance
// weights W over the same range; every weight is > 0. Blocks are consumed
// innermost-first by mini-batch GNN trainers.
type Block struct {
	// Dsts are the global IDs of the nodes whose aggregation this block
	// estimates.
	Dsts []int32
	// Srcs are the global IDs feeding the aggregation. By construction
	// Srcs always begins with Dsts (self features are needed by SAGE-style
	// concatenation).
	Srcs    []int32
	Offsets []int64
	Idx     []int32
	W       []float64
	// Neigh[i] is Idx[Offsets[i]:Offsets[i+1]], capacity included: the
	// sampled in-neighbours of Dsts[i] as positions in Srcs.
	Neigh [][]int32

	// The transpose — one row per source, its edges in (destination,
	// edge) order — built by the first AggregateBackwardInto.
	tOffsets []int64
	tIdx     []int32
	tW       []float64
}

// NumUniqueSrcs returns the number of distinct source nodes the block
// touches — the memory/compute cost measure the LABOR comparison uses.
func (b *Block) NumUniqueSrcs() int { return len(b.Srcs) }

// Weight returns the importance weights of Dsts[i]'s edges, parallel to
// Neigh[i].
func (b *Block) Weight(i int) []float64 {
	lo, hi := b.Offsets[i], b.Offsets[i+1]
	return b.W[lo:hi:hi]
}

const minChunkRows = 256 // least rows one worker aggregates, as in graph's SpMM

// AggregateInto writes into dst (|Dsts| × src.Cols) the estimated mean
// aggregation of every destination from src, whose row i holds the
// features of Srcs[i]. It is the SpMM of the block's rows: each row is
// cleared, then its edges' weighted source rows are added in edge order.
// dst must not overlap src.
func (b *Block) AggregateInto(src, dst *tensor.Matrix) {
	accumRows(b.Offsets, b.Idx, b.W, src, len(b.Srcs), dst)
}

// AggregateBackwardInto is the adjoint of AggregateInto: from ∂L/∂(output)
// g it writes ∂L/∂(source features) into dst (|Srcs| × g.Cols). It sweeps
// the block's transpose with the same row kernel; each source's edges
// appear there in (destination, edge) order, the order a scatter over the
// destinations would add them in. dst must not overlap g.
func (b *Block) AggregateBackwardInto(g, dst *tensor.Matrix) {
	if b.tOffsets == nil {
		b.transpose()
	}
	accumRows(b.tOffsets, b.tIdx, b.tW, g, len(b.Dsts), dst)
}

// transpose builds the source-major copy of the block by one stable
// counting pass over the edges.
func (b *Block) transpose() {
	off := make([]int64, len(b.Srcs)+1)
	for _, s := range b.Idx {
		off[s+1]++
	}
	for s := range b.Srcs {
		off[s+1] += off[s]
	}
	b.tIdx = make([]int32, len(b.Idx))
	b.tW = make([]float64, len(b.W))
	// off[s] is source s's next free slot; placing shifts it to where
	// source s+1 starts, so shifting back restores the offsets.
	for d := range b.Dsts {
		for e := b.Offsets[d]; e < b.Offsets[d+1]; e++ {
			s := b.Idx[e]
			b.tIdx[off[s]], b.tW[off[s]] = int32(d), b.W[e]
			off[s]++
		}
	}
	copy(off[1:], off)
	off[0] = 0
	b.tOffsets = off
}

// accumRows sets row i of dst to Σ w[e]·row(idx[e]) of x over e in
// [offsets[i], offsets[i+1]), rows split among workers; x must have xRows
// rows.
func accumRows(offsets []int64, idx []int32, w []float64, x *tensor.Matrix, xRows int, dst *tensor.Matrix) {
	if x.Rows != xRows || dst.Rows != len(offsets)-1 || dst.Cols != x.Cols || tensor.Overlaps(x.Data, dst.Data) {
		panic(fmt.Sprintf("sampling: aggregating %d rows over %d: %dx%d -> %dx%d, or the two overlap",
			len(offsets)-1, xRows, x.Rows, x.Cols, dst.Rows, dst.Cols))
	}
	par.Range(dst.Rows, minChunkRows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := dst.Row(i)
			clear(row)
			s, e := offsets[i], offsets[i+1]
			tensor.F64AccumRows(w[s:e], idx[s:e], x.Data, x.Rows, x.Cols, row)
		}
	})
}

// blockBuilder is the one place a Block is assembled. It owns what every
// sampler's output has in common — sources deduplicated Dsts-first in
// first-seen order, and all destinations' neighbour indices and weights in
// two flat arrays — so a sampler is only its selection rule.
type blockBuilder struct {
	b *Block
	// local maps a global id to 1 + its position in b.Srcs, 0 meaning not
	// yet a source. The sampler owns it; buildBlock clears the entries it
	// set, so a block costs O(|Srcs|) in it, not O(n).
	local []int32
}

// buildBlock runs sel once per destination that has neighbours; sel keeps
// an edge by calling add. perDst, the number of edges sel expects to keep
// per destination, only sizes the flat arrays: they grow past it. local is
// the sampler's id table, sized to g on first use.
func buildBlock(g *graph.CSR, local *[]int32, dsts []int32, perDst int, sel func(bb *blockBuilder, ns []int32)) *Block {
	if len(*local) != g.N {
		*local = make([]int32, g.N)
	}
	edges := 0
	for _, d := range dsts {
		edges += min(perDst, g.Degree(int(d)))
	}
	b := &Block{
		Dsts:    dsts,
		Srcs:    make([]int32, 0, len(dsts)+edges),
		Offsets: make([]int64, len(dsts)+1),
		Idx:     make([]int32, 0, edges),
		W:       make([]float64, 0, edges),
		Neigh:   make([][]int32, len(dsts)),
	}
	bb := &blockBuilder{b: b, local: *local}
	for _, d := range dsts {
		bb.localID(d)
	}
	for i, d := range dsts {
		if ns := g.Neighbors(int(d)); len(ns) > 0 {
			sel(bb, ns)
		}
		b.Offsets[i+1] = int64(len(b.Idx))
	}
	for _, v := range b.Srcs {
		bb.local[v] = 0
	}
	for i := range b.Neigh {
		lo, hi := b.Offsets[i], b.Offsets[i+1]
		b.Neigh[i] = b.Idx[lo:hi:hi]
	}
	return b
}

func (bb *blockBuilder) localID(v int32) int32 {
	if i := bb.local[v]; i != 0 {
		return i - 1
	}
	bb.b.Srcs = append(bb.b.Srcs, v)
	i := int32(len(bb.b.Srcs))
	bb.local[v] = i
	return i - 1
}

// add keeps the edge from source v, with weight w, for the destination
// being built.
func (bb *blockBuilder) add(v int32, w float64) {
	bb.b.Idx = append(bb.b.Idx, bb.localID(v))
	bb.b.W = append(bb.b.W, w)
}

// NeighborSampler is the node-level (GraphSAGE) strategy: every target node
// independently draws up to Fanout neighbors uniformly without replacement.
type NeighborSampler struct {
	G      *graph.CSR
	Fanout int
	local  []int32 // buildBlock's id table
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
	return buildBlock(s.G, &s.local, dsts, s.Fanout, func(bb *blockBuilder, ns []int32) {
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
	local  []int32 // buildBlock's id table
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
	return inclusionBlock(s.G, &s.local, dsts, s.Fanout, func(v int32) float64 {
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
func inclusionBlock(g *graph.CSR, local *[]int32, dsts []int32, fanout int, variate func(v int32) float64) *Block {
	return buildBlock(g, local, dsts, fanout, func(bb *blockBuilder, ns []int32) {
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
	local  []int32 // buildBlock's id table
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
	return inclusionBlock(s.G, &s.local, dsts, s.Fanout, func(int32) float64 { return rng.Float64() })
}

// BlockSampler is implemented by all per-layer samplers in this package.
// A sampler keeps scratch between calls and is not safe for concurrent
// use.
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
		out := tensor.New(len(b.Dsts), x.Cols)
		b.AggregateInto(x.SelectRows(idx), out)
		return out
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
