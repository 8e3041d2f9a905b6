package models

import (
	"fmt"
	"math/rand/v2"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/metrics"
	"scalegnn/internal/nn"
	"scalegnn/internal/par"
	"scalegnn/internal/sampling"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// sageLayer is one GraphSAGE mean-aggregator layer:
// h'_u = act(W_self·h_u + W_neigh·mean_{v∈sample(u)} h_v + b).
// Forward/backward operate on sampled Blocks, so the layer never touches
// more nodes than the sample.
type sageLayer struct {
	self  *nn.Linear
	neigh *nn.Linear
	relu  bool

	// retained for backward
	block *sampling.Block
	mask  []uint8

	// reused scratch: the view of the destination rows of the source
	// features, the aggregation, the source gradient and the ReLU-masked
	// gradient copy.
	selfView tensor.Matrix
	agg      tensor.Buf
	gSrc     tensor.Buf
	gradBuf  tensor.Buf
}

func newSageLayer(in, out int, relu bool, rng *rand.Rand) *sageLayer {
	return &sageLayer{
		self:  nn.NewLinear(in, out, true, rng),
		neigh: nn.NewLinear(in, out, false, rng),
		relu:  relu,
	}
}

// forward computes destination representations from source features.
func (l *sageLayer) forward(block *sampling.Block, srcFeats *tensor.Matrix, training bool) *tensor.Matrix {
	if training {
		l.block = block
	}
	// Srcs start with Dsts, so the self features are the first rows.
	nd := len(block.Dsts)
	l.selfView = tensor.Matrix{Rows: nd, Cols: srcFeats.Cols, Data: srcFeats.Data[:nd*srcFeats.Cols]}
	selfFeats := &l.selfView
	agg := l.agg.Next(nd, srcFeats.Cols)
	block.AggregateInto(srcFeats, agg)
	y := l.self.Forward(selfFeats, training)
	y.Add(l.neigh.Forward(agg, training))
	if l.relu {
		// In place: a separate activation buffer would be retained per layer.
		var keep []uint8
		if training {
			if cap(l.mask) < len(y.Data) {
				l.mask = make([]uint8, len(y.Data))
			}
			l.mask = l.mask[:len(y.Data)]
			keep = l.mask
		}
		tensor.ReLUInto(y.Data, y.Data, keep)
	}
	return y
}

// backward returns the gradient with respect to the source features, or
// nil on the innermost layer, whose sources are rows of the feature matrix:
// its Linears carry NoInputGrad, and the scatter into a gradient nobody
// reads is skipped with them.
func (l *sageLayer) backward(gradOut *tensor.Matrix) *tensor.Matrix {
	g := gradOut
	if l.relu {
		g = l.gradBuf.Next(gradOut.Rows, gradOut.Cols)
		tensor.GateInto(g.Data, gradOut.Data, l.mask)
	}
	gSelf := l.self.Backward(g)
	gAgg := l.neigh.Backward(g)
	block := l.block
	l.block = nil
	if gAgg == nil {
		return nil
	}
	gSrc := l.gSrc.Next(len(block.Srcs), gAgg.Cols)
	block.AggregateBackwardInto(gAgg, gSrc)
	// Self path: dsts are the first rows of srcs.
	for i, v := range gSelf.Data {
		gSrc.Data[i] += v
	}
	return gSrc
}

func (l *sageLayer) params() []*nn.Param {
	return append(l.self.Params(), l.neigh.Params()...)
}

// GraphSAGE trains with node-level neighbor sampling (§3.1.2 graph
// sampling): per batch it samples a bounded multi-layer computation graph,
// so memory scales with batch size and fan-out instead of graph size.
type GraphSAGE struct {
	Layers int
	Fanout int

	st *sageState // nil before Fit
}

// sageState is GraphSAGE's trained state: its layers, the fan-out they
// were trained at, and the scratch that gathers the deepest sources'
// features, reused across batches.
type sageState struct {
	layers []*sageLayer
	fanout int

	xBuf tensor.Buf
}

// release returns the sampled path's buffers to the pool, as Fit and
// Predict return: nothing sized by their largest pass outlives them.
func (s *sageState) release() {
	s.xBuf.Release()
	for _, l := range s.layers {
		l.agg.Release()
		l.gSrc.Release()
		l.gradBuf.Release()
	}
}

// NewGraphSAGE constructs a SAGE model.
func NewGraphSAGE(layers, fanout int) (*GraphSAGE, error) {
	if layers < 1 {
		return nil, fmt.Errorf("models: GraphSAGE needs >= 1 layer, got %d", layers)
	}
	if fanout < 1 {
		return nil, fmt.Errorf("models: GraphSAGE needs fanout >= 1, got %d", fanout)
	}
	return &GraphSAGE{Layers: layers, Fanout: fanout}, nil
}

// Name implements Trainer.
func (m *GraphSAGE) Name() string { return fmt.Sprintf("SAGE-%dL-f%d", m.Layers, m.Fanout) }

// forwardBlocks runs all layers over a sampled computation graph. blocks[0]
// is the outermost layer; features start at the deepest sources.
func (s *sageState) forwardBlocks(blocks []*sampling.Block, x *tensor.Matrix, training bool) *tensor.Matrix {
	deepest := blocks[len(blocks)-1]
	h := s.gatherSrcFeats(x, deepest.Srcs)
	for l := len(blocks) - 1; l >= 0; l-- {
		h = s.layers[len(blocks)-1-l].forward(blocks[l], h, training)
	}
	return h
}

// backwardBlocks backpropagates through all layers.
func (s *sageState) backwardBlocks(blocks []*sampling.Block, grad *tensor.Matrix) {
	for l := 0; l < len(blocks); l++ {
		grad = s.layers[len(blocks)-1-l].backward(grad)
	}
}

// gatherSrcFeats copies the rows of x indexed by ids into a pooled matrix
// recycled on the next batch (by which point every layer has consumed it).
func (s *sageState) gatherSrcFeats(x *tensor.Matrix, ids []int32) *tensor.Matrix {
	h := s.xBuf.Next(len(ids), x.Cols)
	par.Range(len(ids), gatherChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(h.Row(i), x.Row(int(ids[i])))
		}
	})
	return h
}

const gatherChunk = 256 // least rows one worker gathers

// Fit trains with sampled mini-batches.
func (m *GraphSAGE) Fit(ds *dataset.Dataset, cfg TrainConfig) (*Report, error) {
	return atTier(m, &m.st, ds, cfg, nil, fitSAGE, nil)
}

func fitSAGE(m *GraphSAGE, ds *dataset.Dataset, cfg TrainConfig, _ *ckpt.Snapshot, rep *Report) (*sageState, error) {
	pcg, rng := newRunRNG(cfg.Seed)
	sampler, err := sampling.NewNeighborSampler(ds.G, m.Fanout)
	if err != nil {
		return nil, err
	}
	st := &sageState{fanout: m.Fanout}
	defer st.release()
	in := ds.X.Cols
	for l := 0; l < m.Layers; l++ {
		out := cfg.Hidden
		if l == m.Layers-1 {
			out = ds.NumClasses
		}
		st.layers = append(st.layers, newSageLayer(in, out, l != m.Layers-1, rng))
		in = out
	}
	// The innermost layer's sources are rows of ds.X: no gradient for them.
	st.layers[0].self.NoInputGrad, st.layers[0].neigh.NoInputGrad = true, true
	var params []*nn.Param
	for _, l := range st.layers {
		params = append(params, l.params()...)
	}
	opt := nn.NewAdam(cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	src := train.NewBatches(ds.TrainIdx, cfg.BatchSize)
	peakSrcs := 0
	dsts := make([]int32, src.BatchSize())
	labels := make([]int, src.BatchSize())
	valLabels := dataset.LabelsAt(ds.Labels, ds.ValIdx)
	defer opt.Reset()
	err = runLoop(m.Name(), ds, cfg, pcg, rep, train.Spec{
		Source: src,
		Step: func(ids []int) error {
			bDsts := dsts[:len(ids)]
			for i, v := range ids {
				bDsts[i] = int32(v)
			}
			blocks := sampler.SampleLayers(bDsts, m.Layers, rng)
			if s := blocks[len(blocks)-1].NumUniqueSrcs(); s > peakSrcs {
				peakSrcs = s
			}
			logits := st.forwardBlocks(blocks, ds.X, true)
			bLabels := labels[:len(bDsts)]
			for i, d := range bDsts {
				bLabels[i] = ds.Labels[d]
			}
			grad := tensor.GetBuf(logits.Rows, logits.Cols)
			nn.SoftmaxCrossEntropyInto(logits, bLabels, grad)
			st.backwardBlocks(blocks, grad)
			tensor.PutBuf(grad)
			opt.Step(params)
			return nil
		},
		Validate: func() (float64, error) {
			return metrics.Accuracy(st.predictIdx(ds, ds.ValIdx, rng), valLabels), nil
		},
		Params:    params,
		Optimizer: opt,
		// Peak resident floats: the sampled computation graph's activations,
		// which scale with peakSrcs — not with n.
		PeakFloats: func() int {
			nParams := 0
			for _, p := range params {
				nParams += p.NumValues()
			}
			return 2*peakSrcs*(ds.X.Cols+cfg.Hidden) + nParams*3
		},
	})
	if err != nil {
		return nil, err
	}

	evalRng := tensor.NewRand(cfg.Seed + 999)
	fillAccuracies(func(idx []int) []int {
		return st.predictIdx(ds, idx, evalRng)
	}, ds, rep)
	return st, nil
}

// predictIdx runs sampled inference on the given nodes (full fan-out would
// be exact; we use the training fan-out for consistency with SAGE practice).
func (s *sageState) predictIdx(ds *dataset.Dataset, idx []int, rng *rand.Rand) []int {
	sampler, _ := sampling.NewNeighborSampler(ds.G, s.fanout*4) // wider at eval
	dsts := make([]int32, len(idx))
	for i, v := range idx {
		dsts[i] = int32(v)
	}
	blocks := sampler.SampleLayers(dsts, len(s.layers), rng)
	return nn.Argmax(s.forwardBlocks(blocks, ds.X, false))
}

// Predict implements Trainer.
func (m *GraphSAGE) Predict(ds *dataset.Dataset) ([]int, error) {
	if m.st == nil {
		return nil, fmt.Errorf("models: GraphSAGE.Predict before Fit")
	}
	defer m.st.release()
	return m.st.predictIdx(ds, rangeIdx(ds.G.N), tensor.NewRand(12345)), nil
}
