package models

import (
	"fmt"
	"math"
	"time"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/hublabel"
	"scalegnn/internal/metrics"
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

	st *gtState // nil before Fit
}

// gtState is GraphTransformer's trained state: the hub-label index, the
// attention weights, and the full-graph predictions Fit caches.
type gtState struct {
	buckets        int
	index          *hublabel.Index
	hidden         int
	wq, wk, wv, wo *nn.Param
	ws             *nn.Param // residual self-projection d -> h
	bias           *nn.Param // 1 x buckets learnable SPD bias
	pred           []int
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
func (s *gtState) bucketOf(d int) int {
	if d < 0 || d >= s.buckets {
		return s.buckets - 1
	}
	return d
}

// attnState is one batch's forward intermediates, retained for backward.
type attnState struct {
	x       *tensor.Matrix // batch features (b x d)
	q, k, v *tensor.Matrix // projections (b x h)
	scores  *tensor.Matrix // softmax-normalized attention (b x b)
	buckets [][]int        // SPD bucket per pair
	ctx     *tensor.Matrix // attention output (b x h)
}

func (s *gtState) forwardBatch(x *tensor.Matrix, buckets [][]int) (*attnState, *tensor.Matrix) {
	a := &attnState{x: x, buckets: buckets}
	a.q = tensor.MatMul(x, s.wq.Value)
	a.k = tensor.MatMul(x, s.wk.Value)
	a.v = tensor.MatMul(x, s.wv.Value)
	b := x.Rows
	scale := 1 / math.Sqrt(float64(s.hidden))
	raw := tensor.MatMulT(a.q, a.k)
	for i := 0; i < b; i++ {
		row := raw.Row(i)
		for j := range row {
			row[j] = row[j]*scale + s.bias.Value.At(0, buckets[i][j])
		}
	}
	a.scores = nn.Softmax(raw)
	a.ctx = tensor.MatMul(a.scores, a.v)
	// Residual self path: a node always keeps its own projected features,
	// independent of what attention mixes in.
	a.ctx.Add(tensor.MatMul(x, s.ws.Value))
	logits := tensor.MatMul(a.ctx, s.wo.Value)
	return a, logits
}

// backwardBatch accumulates parameter gradients from ∂L/∂logits.
func (s *gtState) backwardBatch(a *attnState, gLogits *tensor.Matrix) {
	// Head.
	s.wo.Grad.Add(tensor.TMatMul(a.ctx, gLogits))
	gCtx := tensor.MatMulT(gLogits, s.wo.Value)
	// Residual self path.
	s.ws.Grad.Add(tensor.TMatMul(a.x, gCtx))
	// ctx = scores · v (+ x·ws).
	gScores := tensor.MatMulT(gCtx, a.v)
	gV := tensor.TMatMul(a.scores, gCtx)
	// Softmax backward row-wise: gRaw = s ∘ (gScores − <gScores, s>).
	b := a.x.Rows
	gRaw := tensor.New(b, b)
	for i := 0; i < b; i++ {
		srow := a.scores.Row(i)
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
			s.bias.Grad.Data[a.buckets[i][j]] += g
		}
	}
	// raw = scale·q kᵀ (+bias).
	scale := 1 / math.Sqrt(float64(s.hidden))
	gQ := tensor.MatMul(gRaw, a.k)
	gQ.Scale(scale)
	gK := tensor.TMatMul(gRaw, a.q)
	gK.Scale(scale)
	s.wq.Grad.Add(tensor.TMatMul(a.x, gQ))
	s.wk.Grad.Add(tensor.TMatMul(a.x, gK))
	s.wv.Grad.Add(tensor.TMatMul(a.x, gV))
}

func (s *gtState) params() []*nn.Param {
	return []*nn.Param{s.wq, s.wk, s.wv, s.ws, s.wo, s.bias}
}

// Fit builds the hub-label index once, then trains on SPD-biased attention
// batches.
func (m *GraphTransformer) Fit(ds *dataset.Dataset, cfg TrainConfig) (*Report, error) {
	return atTier(m, &m.st, ds, cfg, nil, fitTransformer, nil)
}

func fitTransformer(m *GraphTransformer, ds *dataset.Dataset, cfg TrainConfig, _ *ckpt.Snapshot, rep *Report) (*gtState, error) {
	preStart := time.Now()
	ix, err := hublabel.Build(ds.G)
	if err != nil {
		return nil, fmt.Errorf("models: transformer hub labels: %w", err)
	}
	rep.Precompute = time.Since(preStart)

	pcg, rng := newRunRNG(cfg.Seed)
	st := &gtState{buckets: m.Buckets, index: ix, hidden: cfg.Hidden}
	st.wq = nn.NewParam("gt.wq", tensor.GlorotUniform(ds.X.Cols, cfg.Hidden, rng))
	st.wk = nn.NewParam("gt.wk", tensor.GlorotUniform(ds.X.Cols, cfg.Hidden, rng))
	st.wv = nn.NewParam("gt.wv", tensor.GlorotUniform(ds.X.Cols, cfg.Hidden, rng))
	st.ws = nn.NewParam("gt.ws", tensor.GlorotUniform(ds.X.Cols, cfg.Hidden, rng))
	st.wo = nn.NewParam("gt.wo", tensor.GlorotUniform(cfg.Hidden, ds.NumClasses, rng))
	st.bias = nn.NewParam("gt.bias", tensor.New(1, m.Buckets))
	opt := nn.NewAdam(cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	batch := cfg.BatchSize
	if batch <= 0 || batch > len(ds.TrainIdx) {
		batch = len(ds.TrainIdx)
	}
	if batch > 256 {
		batch = 256 // attention is O(b²); keep batches transformer-sized
	}
	valLabels := dataset.LabelsAt(ds.Labels, ds.ValIdx)
	defer opt.Reset()
	err = runLoop(m.Name(), ds, cfg, pcg, rep, train.Spec{
		Source: train.NewBatches(ds.TrainIdx, batch),
		Step: func(ids []int) error {
			as, logits, err := st.batchForward(ds, ids)
			if err != nil {
				return err
			}
			_, gLogits := nn.SoftmaxCrossEntropy(logits, dataset.LabelsAt(ds.Labels, ids))
			st.backwardBatch(as, gLogits)
			opt.Step(st.params())
			return nil
		},
		Validate: func() (float64, error) {
			valPred, err := st.predictIdx(ds, ds.ValIdx)
			if err != nil {
				return 0, err
			}
			return metrics.Accuracy(valPred, valLabels), nil
		},
		Params:    st.params(),
		Optimizer: opt,
		PeakFloats: func() int {
			return batch*batch*2 + 4*batch*(ds.X.Cols+cfg.Hidden) + 3*(st.wq.NumValues()+st.wk.NumValues()+st.wv.NumValues()+st.wo.NumValues())
		},
	})
	if err != nil {
		return nil, err
	}

	fillAccuracies(func(idx []int) []int {
		pred, err := st.predictIdx(ds, idx)
		if err != nil {
			return make([]int, len(idx))
		}
		return pred
	}, ds, rep)
	if st.pred, err = st.predictIdx(ds, rangeIdx(ds.G.N)); err != nil {
		return nil, err
	}
	return st, nil
}

// batchForward assembles the SPD bias (via hub-label queries) and runs the
// attention layer.
func (s *gtState) batchForward(ds *dataset.Dataset, idx []int) (*attnState, *tensor.Matrix, error) {
	spd, err := s.index.DistanceMatrix(idx)
	if err != nil {
		return nil, nil, err
	}
	buckets := make([][]int, len(idx))
	for i := range spd {
		buckets[i] = make([]int, len(idx))
		for j, d := range spd[i] {
			buckets[i][j] = s.bucketOf(d)
		}
	}
	x := ds.X.SelectRows(idx)
	a, logits := s.forwardBatch(x, buckets)
	return a, logits, nil
}

// predictIdx classifies nodes in attention batches of 256.
func (s *gtState) predictIdx(ds *dataset.Dataset, idx []int) ([]int, error) {
	out := make([]int, len(idx))
	const b = 256
	for off := 0; off < len(idx); off += b {
		end := min(off+b, len(idx))
		_, logits, err := s.batchForward(ds, idx[off:end])
		if err != nil {
			return nil, err
		}
		copy(out[off:end], nn.Argmax(logits))
	}
	return out, nil
}

// Predict implements Trainer.
func (m *GraphTransformer) Predict(ds *dataset.Dataset) ([]int, error) {
	if m.st == nil {
		return nil, fmt.Errorf("models: GraphTransformer.Predict before Fit")
	}
	return m.st.pred, nil
}

// SPDBias exposes the learned per-bucket attention bias (ablation probes).
func (m *GraphTransformer) SPDBias() []float64 {
	if m.st == nil {
		return nil
	}
	return append([]float64(nil), m.st.bias.Value.Row(0)...)
}
