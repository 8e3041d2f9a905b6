package models

import (
	"fmt"
	"math"
	"time"

	"scalegnn/internal/dataset"
	"scalegnn/internal/hublabel"
	"scalegnn/internal/nn"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// GraphTransformer is a DHIL-GT-style mini graph Transformer (tutorial
// §3.2.2 / §3.4.1): node batches attend to each other with a learnable
// shortest-path-distance bias, where SPDs come from a hub-label index so
// that bias construction is a sub-millisecond query instead of per-batch
// BFS. One single-head attention layer with exact manual backprop,
// followed by a linear head.
//
// The model is deliberately minimal — the reproduction target is the data-
// management claim (hub labels make SPD-biased attention affordable), not
// Transformer architecture tricks.
type GraphTransformer struct {
	// Buckets is the number of SPD buckets (distances >= Buckets-1 and
	// disconnected pairs share the last bucket).
	Buckets int

	wq, wk, wv, wo *nn.Param
	ws             *nn.Param // residual self-projection d -> h
	bias           *nn.Param // 1 x Buckets learnable SPD bias
	index          *hublabel.Index
	hidden         int
	lastPred       []int
}

// NewGraphTransformer constructs the model.
func NewGraphTransformer(buckets int) (*GraphTransformer, error) {
	if buckets < 2 {
		return nil, fmt.Errorf("models: GraphTransformer needs >= 2 SPD buckets, got %d", buckets)
	}
	return &GraphTransformer{Buckets: buckets}, nil
}

// Name implements Trainer.
func (m *GraphTransformer) Name() string { return fmt.Sprintf("GraphTransformer-b%d", m.Buckets) }

// bucketOf maps an SPD to its bias bucket.
func (m *GraphTransformer) bucketOf(d int) int {
	if d < 0 || d >= m.Buckets {
		return m.Buckets - 1
	}
	return d
}

// attentionForward computes one batch's logits and retains intermediates.
type attnState struct {
	x       *tensor.Matrix // batch features (b x d)
	q, k, v *tensor.Matrix // projections (b x h)
	scores  *tensor.Matrix // softmax-normalized attention (b x b)
	buckets [][]int        // SPD bucket per pair
	ctx     *tensor.Matrix // attention output (b x h)
}

func (m *GraphTransformer) forwardBatch(x *tensor.Matrix, buckets [][]int) (*attnState, *tensor.Matrix) {
	st := &attnState{x: x, buckets: buckets}
	st.q = tensor.MatMul(x, m.wq.Value)
	st.k = tensor.MatMul(x, m.wk.Value)
	st.v = tensor.MatMul(x, m.wv.Value)
	b := x.Rows
	scale := 1 / math.Sqrt(float64(m.hidden))
	raw := tensor.MatMulT(st.q, st.k)
	for i := 0; i < b; i++ {
		row := raw.Row(i)
		for j := range row {
			row[j] = row[j]*scale + m.bias.Value.At(0, buckets[i][j])
		}
	}
	st.scores = nn.Softmax(raw)
	st.ctx = tensor.MatMul(st.scores, st.v)
	// Residual self path: a node always keeps its own projected features,
	// independent of what attention mixes in.
	st.ctx.Add(tensor.MatMul(x, m.ws.Value))
	logits := tensor.MatMul(st.ctx, m.wo.Value)
	return st, logits
}

// backwardBatch accumulates parameter gradients from ∂L/∂logits.
func (m *GraphTransformer) backwardBatch(st *attnState, gLogits *tensor.Matrix) {
	// Head.
	m.wo.Grad.Add(tensor.TMatMul(st.ctx, gLogits))
	gCtx := tensor.MatMulT(gLogits, m.wo.Value)
	// Residual self path.
	m.ws.Grad.Add(tensor.TMatMul(st.x, gCtx))
	// ctx = scores · v (+ x·ws).
	gScores := tensor.MatMulT(gCtx, st.v)
	gV := tensor.TMatMul(st.scores, gCtx)
	// Softmax backward row-wise: gRaw = s ∘ (gScores − <gScores, s>).
	b := st.x.Rows
	gRaw := tensor.New(b, b)
	for i := 0; i < b; i++ {
		srow := st.scores.Row(i)
		grow := gScores.Row(i)
		var inner float64
		for j := range srow {
			inner += srow[j] * grow[j]
		}
		out := gRaw.Row(i)
		for j := range srow {
			out[j] = srow[j] * (grow[j] - inner)
		}
	}
	// Bias buckets accumulate raw-score gradients.
	for i := 0; i < b; i++ {
		row := gRaw.Row(i)
		for j, g := range row {
			m.bias.Grad.Data[st.buckets[i][j]] += g
		}
	}
	// raw = scale·q kᵀ (+bias).
	scale := 1 / math.Sqrt(float64(m.hidden))
	gQ := tensor.MatMul(gRaw, st.k)
	gQ.Scale(scale)
	gK := tensor.TMatMul(gRaw, st.q)
	gK.Scale(scale)
	m.wq.Grad.Add(tensor.TMatMul(st.x, gQ))
	m.wk.Grad.Add(tensor.TMatMul(st.x, gK))
	m.wv.Grad.Add(tensor.TMatMul(st.x, gV))
}

func (m *GraphTransformer) params() []*nn.Param {
	return []*nn.Param{m.wq, m.wk, m.wv, m.ws, m.wo, m.bias}
}

// Fit builds the hub-label index once, then trains on SPD-biased attention
// batches.
func (m *GraphTransformer) Fit(ds *dataset.Dataset, cfg TrainConfig) (*Report, error) {
	if _, err := float32Run(m.Name(), ds, cfg, nil, false); err != nil {
		return nil, err
	}
	rep := &Report{Model: m.Name()}
	preStart := time.Now()
	ix, err := hublabel.Build(ds.G)
	if err != nil {
		return nil, fmt.Errorf("models: transformer hub labels: %w", err)
	}
	m.index = ix
	rep.Precompute = time.Since(preStart)

	pcg, rng := newRunRNG(cfg.Seed)
	m.hidden = cfg.Hidden
	m.wq = nn.NewParam("gt.wq", tensor.GlorotUniform(ds.X.Cols, cfg.Hidden, rng))
	m.wk = nn.NewParam("gt.wk", tensor.GlorotUniform(ds.X.Cols, cfg.Hidden, rng))
	m.wv = nn.NewParam("gt.wv", tensor.GlorotUniform(ds.X.Cols, cfg.Hidden, rng))
	m.ws = nn.NewParam("gt.ws", tensor.GlorotUniform(ds.X.Cols, cfg.Hidden, rng))
	m.wo = nn.NewParam("gt.wo", tensor.GlorotUniform(cfg.Hidden, ds.NumClasses, rng))
	m.bias = nn.NewParam("gt.bias", tensor.New(1, m.Buckets))
	opt := nn.NewAdam(cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	batch := cfg.BatchSize
	if batch <= 0 || batch > len(ds.TrainIdx) {
		batch = len(ds.TrainIdx)
	}
	if batch > 256 {
		batch = 256 // attention is O(b²); keep batches transformer-sized
	}
	src := train.NewIndexBatches(ds.TrainIdx, batch)
	defer opt.Reset()
	err = runLoop(m.Name(), ds, cfg, pcg, rng, rep, train.Spec{
		Source: src,
		Step: func(b train.Batch) error {
			st, logits, err := m.batchForward(ds, b.Indices)
			if err != nil {
				return err
			}
			_, gLogits := nn.SoftmaxCrossEntropy(logits, dataset.LabelsAt(ds.Labels, b.Indices))
			m.backwardBatch(st, gLogits)
			opt.Step(m.params())
			return nil
		},
		Validate: func() (float64, error) {
			valPred, err := m.predictIdx(ds, ds.ValIdx)
			if err != nil {
				return 0, err
			}
			correct := 0
			for i, v := range ds.ValIdx {
				if valPred[i] == ds.Labels[v] {
					correct++
				}
			}
			return float64(correct) / float64(max(1, len(ds.ValIdx))), nil
		},
		Params:    m.params(),
		Optimizer: opt,
		PeakFloats: func() int {
			return batch*batch*2 + 4*batch*(ds.X.Cols+cfg.Hidden) + 3*(m.wq.NumValues()+m.wk.NumValues()+m.wv.NumValues()+m.wo.NumValues())
		},
	})
	if err != nil {
		return nil, err
	}

	fillAccuracies(func(idx []int) []int {
		pred, err := m.predictIdx(ds, idx)
		if err != nil {
			return make([]int, len(idx))
		}
		return pred
	}, ds, rep)
	pred, err := m.predictIdx(ds, rangeIdx(ds.G.N))
	if err != nil {
		return nil, err
	}
	m.lastPred = pred
	return rep, nil
}

// batchForward assembles the SPD bias (via hub-label queries) and runs the
// attention layer.
func (m *GraphTransformer) batchForward(ds *dataset.Dataset, idx []int) (*attnState, *tensor.Matrix, error) {
	spd, err := m.index.DistanceMatrix(idx)
	if err != nil {
		return nil, nil, err
	}
	buckets := make([][]int, len(idx))
	for i := range spd {
		buckets[i] = make([]int, len(idx))
		for j, d := range spd[i] {
			buckets[i][j] = m.bucketOf(d)
		}
	}
	x := ds.X.SelectRows(idx)
	st, logits := m.forwardBatch(x, buckets)
	return st, logits, nil
}

// predictIdx classifies nodes in attention batches of 256.
func (m *GraphTransformer) predictIdx(ds *dataset.Dataset, idx []int) ([]int, error) {
	out := make([]int, len(idx))
	const b = 256
	for off := 0; off < len(idx); off += b {
		end := min(off+b, len(idx))
		_, logits, err := m.batchForward(ds, idx[off:end])
		if err != nil {
			return nil, err
		}
		copy(out[off:end], nn.Argmax(logits))
	}
	return out, nil
}

// Predict implements Trainer.
func (m *GraphTransformer) Predict(ds *dataset.Dataset) ([]int, error) {
	if m.lastPred == nil {
		return nil, fmt.Errorf("models: GraphTransformer.Predict before Fit")
	}
	return m.lastPred, nil
}

// SPDBias exposes the learned per-bucket attention bias (ablation probes).
func (m *GraphTransformer) SPDBias() []float64 {
	if m.bias == nil {
		return nil
	}
	return append([]float64(nil), m.bias.Value.Row(0)...)
}
