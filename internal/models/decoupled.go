package models

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"
	"weak"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/metrics"
	"scalegnn/internal/nn"
	"scalegnn/internal/spectral"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// buildHead is the one skeleton SGC, SIGN and LD2 share — they differ only
// in their embedding function and hidden widths: get the embedding from
// embMemo, construct the head, then train it (snap == nil) or load it.
func buildHead[T tensor.Elem](m namer, hidden []int, ds *dataset.Dataset, key func() uint64, cfg TrainConfig, snap *ckpt.Snapshot, rep *Report,
	embed func(*dataset.Dataset) (*tensor.Mat[T], error)) (tierState, error) {
	start := time.Now()
	emb, err := sharedEmbedding(embKey{weak.Make(ds), key(), m.Name(), cfg.dtype()}, ds, embed)
	if err != nil {
		return nil, err
	}
	rep.Precompute = time.Since(start)

	pcg := tensor.NewPCG(cfg.Seed)
	net := noInputGrad(newHead[T](emb.Cols, hidden, ds, cfg, pcg))
	if snap != nil {
		err = restoreParams(m.Name(), net.Params(), snap)
	} else {
		err = trainHead(m.Name(), emb, net, pcg, ds, cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	return newHeadState(emb, net, ds, snap, rep), nil
}

// embMemo shares a head family's embedding between the models built on one
// dataset, so a hot-swap reuses the live generation's emb instead of
// rerunning the precompute. Keys: the dataset itself (equal-content shards
// do not share), its content key (in-place mutation misses), family name,
// tier. Values: a weak.Pointer[tensor.Mat[T]] at that tier, dropped once
// its emb is collected, so the memo keeps nothing alive no model holds. A
// stored emb is never written.
var embMemo sync.Map

type embKey struct {
	ds         weak.Pointer[dataset.Dataset]
	content    uint64
	name, tier string
}

// sharedEmbedding returns the live embedding memoized under k, or computes
// it with embed and memoizes it.
func sharedEmbedding[T tensor.Elem](k embKey, ds *dataset.Dataset, embed func(*dataset.Dataset) (*tensor.Mat[T], error)) (*tensor.Mat[T], error) {
	if wp, ok := embMemo.Load(k); ok {
		if emb := wp.(weak.Pointer[tensor.Mat[T]]).Value(); emb != nil {
			return emb, nil
		}
	}
	emb, err := embed(ds)
	if err != nil {
		return nil, err
	}
	wp := weak.Make(emb)
	embMemo.Store(k, wp)
	runtime.AddCleanup(emb, func(wp weak.Pointer[tensor.Mat[T]]) { embMemo.CompareAndDelete(k, wp) }, wp)
	return emb, nil
}

// newHeadState is the trained state of an embedding+head family; after a
// Fit (snap == nil) it also fills the report's accuracies from it.
func newHeadState[T tensor.Elem](emb *tensor.Mat[T], net *nn.SequentialOf[T], ds *dataset.Dataset, snap *ckpt.Snapshot, rep *Report) *headState[T] {
	st := &headState[T]{emb: emb, net: net, classes: ds.NumClasses}
	if snap == nil {
		fillAccuracies(st.predict, ds, rep)
	}
	return st
}

// SGC is Simple Graph Convolution: precompute Â^K X once, then train a
// plain linear (or shallow MLP) classifier. The prototypical decoupled
// design — all graph work happens before training, so training is
// mini-batch with zero graph access.
type SGC struct {
	K int // propagation hops

	served
}

// NewSGC constructs SGC with K propagation hops.
func NewSGC(k int) (*SGC, error) {
	if k < 1 {
		return nil, fmt.Errorf("models: SGC needs K >= 1, got %d", k)
	}
	return &SGC{K: k, served: served{family: "SGC"}}, nil
}

// Name implements Trainer.
func (m *SGC) Name() string { return fmt.Sprintf("SGC-K%d", m.K) }

// Fit precomputes the smoothed features and trains the head at the tier
// selected by cfg.DType.
func (m *SGC) Fit(ds *dataset.Dataset, cfg TrainConfig) (*Report, error) {
	return atTier(m, &m.st, ds, cfg, nil, buildSGC[float64], buildSGC[float32])
}

// Restore implements Restorer: get the Â^K X precompute, rebuild the
// linear head, and load its weights from the snapshot.
func (m *SGC) Restore(ds *dataset.Dataset, cfg TrainConfig, snap *ckpt.Snapshot) error {
	return restoreAtTier(m, &m.st, ds, cfg, snap, buildSGC[float64], buildSGC[float32])
}

func buildSGC[T tensor.Elem](m *SGC, ds *dataset.Dataset, key func() uint64, cfg TrainConfig, snap *ckpt.Snapshot, rep *Report) (tierState, error) {
	// Linear head: no hidden layer.
	return buildHead(m, nil, ds, key, cfg, snap, rep, func(ds *dataset.Dataset) (*tensor.Mat[T], error) {
		op := graph.NewOperatorOf[T](ds.G, graph.NormSymmetric, true)
		return op.PowerApply(tensor.FromFloat64[T](ds.X), m.K), nil
	})
}

// SIGN precomputes the multi-hop embedding [X | ÂX | Â²X | … | Â^K X] and
// trains an MLP on the concatenation — multi-scale information without
// per-epoch propagation.
type SIGN struct {
	K int

	served
}

// NewSIGN constructs SIGN with hops 0..K.
func NewSIGN(k int) (*SIGN, error) {
	if k < 1 {
		return nil, fmt.Errorf("models: SIGN needs K >= 1, got %d", k)
	}
	return &SIGN{K: k, served: served{family: "SIGN"}}, nil
}

// Name implements Trainer.
func (m *SIGN) Name() string { return fmt.Sprintf("SIGN-K%d", m.K) }

// hopEmbeddings returns [X, ÂX, …, Â^K X] at tier T.
func hopEmbeddings[T tensor.Elem](ds *dataset.Dataset, k int) []*tensor.Mat[T] {
	op := graph.NewOperatorOf[T](ds.G, graph.NormSymmetric, true)
	x := tensor.FromFloat64[T](ds.X)
	hops := make([]*tensor.Mat[T], 0, k+1)
	hops = append(hops, x.Clone())
	cur := x
	for i := 1; i <= k; i++ {
		cur = op.Apply(cur)
		hops = append(hops, cur)
	}
	return hops
}

// Fit precomputes hop embeddings and trains the MLP head at the tier
// selected by cfg.DType.
func (m *SIGN) Fit(ds *dataset.Dataset, cfg TrainConfig) (*Report, error) {
	return atTier(m, &m.st, ds, cfg, nil, buildSIGN[float64], buildSIGN[float32])
}

// Restore implements Restorer for SIGN.
func (m *SIGN) Restore(ds *dataset.Dataset, cfg TrainConfig, snap *ckpt.Snapshot) error {
	return restoreAtTier(m, &m.st, ds, cfg, snap, buildSIGN[float64], buildSIGN[float32])
}

func buildSIGN[T tensor.Elem](m *SIGN, ds *dataset.Dataset, key func() uint64, cfg TrainConfig, snap *ckpt.Snapshot, rep *Report) (tierState, error) {
	return buildHead(m, []int{cfg.Hidden}, ds, key, cfg, snap, rep, func(ds *dataset.Dataset) (*tensor.Mat[T], error) {
		return spectral.ConcatColumns(hopEmbeddings[T](ds, m.K)), nil
	})
}

// APPNP is predict-then-propagate: an MLP produces per-node logits, which
// are then smoothed by a K-step truncated personalized-PageRank
// propagation Z = Σ_k α(1−α)^k Â^k H. Training is full-batch;
// backpropagation through the (symmetric) propagation is the same
// propagation applied to the gradient.
type APPNP struct {
	K     int
	Alpha float64

	served
}

// NewAPPNP constructs APPNP with K propagation steps and restart α.
func NewAPPNP(k int, alpha float64) (*APPNP, error) {
	if k < 1 {
		return nil, fmt.Errorf("models: APPNP needs K >= 1, got %d", k)
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("models: APPNP alpha %v outside (0,1]", alpha)
	}
	return &APPNP{K: k, Alpha: alpha, served: served{family: "APPNP"}}, nil
}

// Name implements Trainer. α is part of it because the name is what the run
// fingerprint hashes: a snapshot must not restore under another α.
func (m *APPNP) Name() string { return fmt.Sprintf("APPNP-K%d-a%g", m.K, m.Alpha) }

// appnpState is APPNP's trained state at one tier: an MLP head over the
// features the model was fit on (the embedding), and the diffusion its
// logits go through.
type appnpState[T tensor.Elem] struct {
	headState[T]
	op    *graph.OperatorOf[T]
	alpha float64
	k     int
}

// propagate applies the truncated PPR diffusion to h. Hops ping-pong
// between two pooled scratch matrices; the returned accumulator is drawn
// from the shared tensor workspace and callers release it with
// tensor.PutBufOf once consumed. Hop coefficients are computed in float64
// at every tier and narrowed only when applied.
func (s *appnpState[T]) propagate(h *tensor.Mat[T]) *tensor.Mat[T] {
	alpha := s.alpha
	z := tensor.GetBufOf[T](h.Rows, h.Cols)
	copy(z.Data, h.Data)
	z.Scale(T(alpha))
	cur := tensor.GetBufOf[T](h.Rows, h.Cols)
	copy(cur.Data, h.Data)
	next := tensor.GetBufOf[T](h.Rows, h.Cols)
	w := alpha
	for k := 1; k <= s.k; k++ {
		s.op.ApplyInto(cur, next)
		cur, next = next, cur
		w *= 1 - alpha
		// Final hop absorbs the geometric tail so the weights sum to 1
		// (the standard iterate z ← (1-α)Âz + αh has the same effect).
		coef := w
		if k == s.k {
			coef = w / alpha
		}
		z.AddScaled(T(coef), cur)
	}
	tensor.PutBufOf(cur)
	tensor.PutBufOf(next)
	return z
}

// diffused returns the propagated full-graph logits in a pooled matrix the
// caller releases with tensor.PutBufOf.
func (s *appnpState[T]) diffused(training bool) *tensor.Mat[T] {
	return s.propagate(s.net.Forward(s.emb, training))
}

// fullLogits caches the diffused logits: recomputing them per call would
// make serving pay the whole-graph K-hop cost per request.
func (s *appnpState[T]) fullLogits() *tensor.Matrix {
	if s.cache == nil {
		z := s.diffused(false)
		s.cache = widened(z)
		tensor.PutBufOf(z)
	}
	return s.cache
}

// score reads rows of the cached diffused logits: propagation couples every
// node, so per-node serving cannot recompute the K-hop walk per request.
func (s *appnpState[T]) score(idx []int, out *tensor.Matrix) error {
	z := s.fullLogits()
	if tensor.Overlaps(out.Data, z.Data) {
		return errors.New("dst aliases the cached logits")
	}
	z.SelectRowsInto(idx, out)
	return nil
}

// Fit trains the MLP with propagation in the loss path, at the tier
// selected by cfg.DType.
func (m *APPNP) Fit(ds *dataset.Dataset, cfg TrainConfig) (*Report, error) {
	return atTier(m, &m.st, ds, cfg, nil, buildAPPNP[float64], buildAPPNP[float32])
}

// Restore implements Restorer for APPNP. The MLP weights come from the
// snapshot; the diffused logits cache repopulates on first use.
func (m *APPNP) Restore(ds *dataset.Dataset, cfg TrainConfig, snap *ckpt.Snapshot) error {
	return restoreAtTier(m, &m.st, ds, cfg, snap, buildAPPNP[float64], buildAPPNP[float32])
}

func buildAPPNP[T tensor.Elem](m *APPNP, ds *dataset.Dataset, _ func() uint64, cfg TrainConfig, snap *ckpt.Snapshot, rep *Report) (tierState, error) {
	pcg := tensor.NewPCG(cfg.Seed)
	st := &appnpState[T]{
		headState: headState[T]{
			emb:     tensor.FromFloat64[T](ds.X),
			net:     noInputGrad(newHead[T](ds.X.Cols, []int{cfg.Hidden}, ds, cfg, pcg)),
			classes: ds.NumClasses,
		},
		op:    graph.NewOperatorOf[T](ds.G, graph.NormSymmetric, true),
		alpha: m.Alpha,
		k:     m.K,
	}
	if snap != nil {
		return st, restoreParams(m.Name(), st.net.Params(), snap)
	}
	opt := nn.NewAdamOf[T](cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	defer opt.Reset()
	err := runLoop(m.Name(), ds, cfg, pcg, rep, train.SpecOf[T]{
		Step: func([]int) error {
			z := st.diffused(true)
			_, gz := maskedLoss(z, ds.Labels, ds.TrainIdx)
			tensor.PutBufOf(z)
			gh := st.propagate(gz) // symmetric diffusion is self-adjoint
			tensor.PutBufOf(gz)
			st.net.Backward(gh)
			tensor.PutBufOf(gh)
			opt.Step(st.net.Params())
			return nil
		},
		Validate: func() (float64, error) {
			valZ := st.diffused(false)
			val := accuracyAt(valZ, ds.Labels, ds.ValIdx)
			tensor.PutBufOf(valZ)
			return val, nil
		},
		Params:    st.net.Params(),
		Optimizer: opt,
		PeakFloats: func() int {
			n := ds.G.N
			return 2*n*(ds.X.Cols+cfg.Hidden+2*ds.NumClasses) + st.net.NumParams()*3
		},
	})
	if err != nil {
		return nil, err
	}

	fillAccuracies(func(idx []int) []int {
		return nn.Argmax(st.fullLogits().SelectRows(idx))
	}, ds, rep)
	return st, nil
}

// GAMLP is SIGN with learnable hop attention: per-hop embeddings are
// combined with softmax-normalized learnable scalars before the MLP head,
// so the model learns how far to look — the "adaptive combination"
// distinguishing GAMLP-style models from fixed concatenation.
type GAMLP struct {
	K int

	served
}

// NewGAMLP constructs GAMLP with hops 0..K.
func NewGAMLP(k int) (*GAMLP, error) {
	if k < 1 {
		return nil, fmt.Errorf("models: GAMLP needs K >= 1, got %d", k)
	}
	return &GAMLP{K: k, served: served{family: "GAMLP"}}, nil
}

// Name implements Trainer.
func (m *GAMLP) Name() string { return fmt.Sprintf("GAMLP-K%d", m.K) }

// attention returns softmax(θ) for the raw attention logits θ (1 x (K+1)),
// accumulated in float64 at every tier.
func attention[T tensor.Elem](theta *nn.ParamOf[T]) []float64 {
	raw := theta.Value.Row(0)
	out := make([]float64, len(raw))
	max := float64(raw[0])
	for _, v := range raw[1:] {
		if float64(v) > max {
			max = float64(v)
		}
	}
	var sum float64
	for i, v := range raw {
		out[i] = math.Exp(float64(v) - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// combine produces Σ_k a_k H_k restricted to the given rows. The result
// comes from the shared tensor workspace; callers release it with
// tensor.PutBufOf after the last use.
func combine[T tensor.Elem](hops []*tensor.Mat[T], att []float64, idx []int) *tensor.Mat[T] {
	out := tensor.GetZeroBufOf[T](len(idx), hops[0].Cols)
	sel := tensor.GetBufOf[T](len(idx), hops[0].Cols)
	for k, h := range hops {
		h.SelectRowsInto(idx, sel)
		out.AddScaled(T(att[k]), sel)
	}
	tensor.PutBufOf(sel)
	return out
}

// Fit precomputes hop embeddings and trains attention + MLP jointly, at the
// tier selected by cfg.DType.
func (m *GAMLP) Fit(ds *dataset.Dataset, cfg TrainConfig) (*Report, error) {
	return atTier(m, &m.st, ds, cfg, nil, buildGAMLP[float64], buildGAMLP[float32])
}

// Restore implements Restorer for GAMLP. The snapshot's parameter order is
// the MLP weights followed by the hop-attention logits θ, matching Fit.
func (m *GAMLP) Restore(ds *dataset.Dataset, cfg TrainConfig, snap *ckpt.Snapshot) error {
	return restoreAtTier(m, &m.st, ds, cfg, snap, buildGAMLP[float64], buildGAMLP[float32])
}

// buildGAMLP trains (or restores) the hop attention and the head together;
// its trained state is a headState whose embedding is Σ_k a_k H_k under the
// final attention, combined once.
func buildGAMLP[T tensor.Elem](m *GAMLP, ds *dataset.Dataset, _ func() uint64, cfg TrainConfig, snap *ckpt.Snapshot, rep *Report) (tierState, error) {
	start := time.Now()
	hops := hopEmbeddings[T](ds, m.K)
	rep.Precompute = time.Since(start)

	pcg := tensor.NewPCG(cfg.Seed)
	theta := nn.NewParam("gamlp.theta", tensor.NewOf[T](1, m.K+1))
	// No noInputGrad: the attention gradient is read off net.Backward.
	net := newHead[T](ds.X.Cols, []int{cfg.Hidden}, ds, cfg, pcg)
	params := append(net.Params(), theta)
	var err error
	if snap != nil {
		err = restoreParams(m.Name(), params, snap)
	} else {
		err = trainGAMLP(m, hops, theta, net, params, pcg, ds, cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	att := attention(theta)
	emb := tensor.NewOf[T](ds.G.N, hops[0].Cols)
	for k, h := range hops {
		emb.AddScaled(T(att[k]), h)
	}
	return newHeadState(emb, net, ds, snap, rep), nil
}

// trainGAMLP is GAMLP's mini-batch loop: each batch combines its rows under
// the current attention, and the loss gradient flows to both the head and θ.
func trainGAMLP[T tensor.Elem](m *GAMLP, hops []*tensor.Mat[T], theta *nn.ParamOf[T], net *nn.SequentialOf[T], params []*nn.ParamOf[T],
	pcg *rand.PCG, ds *dataset.Dataset, cfg TrainConfig, rep *Report) error {
	opt := nn.NewAdamOf[T](cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	src := train.NewBatches(ds.TrainIdx, cfg.BatchSize)
	// Batch scratch reused across the run (attention-gradient accumulator);
	// pooled matrices are released as soon as the backward pass has consumed
	// them.
	ga := make([]float64, m.K+1)
	valLabels := dataset.LabelsAt(ds.Labels, ds.ValIdx)
	defer opt.Reset()
	return runLoop(m.Name(), ds, cfg, pcg, rep, train.SpecOf[T]{
		Source: src,
		Step: func(bIdx []int) error {
			att := attention(theta)
			x := combine(hops, att, bIdx)
			logits := net.Forward(x, true)
			gLogits := tensor.GetBufOf[T](logits.Rows, logits.Cols)
			nn.SoftmaxCrossEntropyInto(logits, dataset.LabelsAt(ds.Labels, bIdx), gLogits)
			gx := net.Backward(gLogits)
			tensor.PutBufOf(gLogits)
			tensor.PutBufOf(x)
			// Attention gradient: ∂L/∂a_k = <gx, H_k[idx]>, then softmax
			// Jacobian back to θ. Dot products accumulate in float64.
			sel := tensor.GetBufOf[T](len(bIdx), hops[0].Cols)
			for k, h := range hops {
				h.SelectRowsInto(bIdx, sel)
				var dot float64
				for i := range gx.Data {
					dot += float64(float64(gx.Data[i]) * float64(sel.Data[i]))
				}
				ga[k] = dot
			}
			tensor.PutBufOf(sel)
			var inner float64
			for k := range ga {
				inner += float64(att[k] * ga[k])
			}
			for k := range ga {
				theta.Grad.Data[k] += T(att[k] * (ga[k] - inner))
			}
			opt.Step(params)
			return nil
		},
		Validate: func() (float64, error) {
			valX := combine(hops, attention(theta), ds.ValIdx)
			valPred := nn.Argmax(net.Forward(valX, false))
			tensor.PutBufOf(valX)
			return metrics.Accuracy(valPred, valLabels), nil
		},
		Params:    params,
		Optimizer: opt,
		PeakFloats: func() int {
			return src.BatchSize()*(ds.X.Cols*(m.K+2)+cfg.Hidden+ds.NumClasses) + net.NumParams()*3
		},
	})
}

// LD2 is the multi-filter heterophilous decoupled model: precompute
// identity, low-pass, and high-pass spectral channels of the features,
// concatenate, and train an MLP mini-batch. The high-pass channel carries
// the heterophilous signal a pure low-pass model destroys — E5's subject.
type LD2 struct {
	Hops int

	served
}

// NewLD2 constructs LD2 with K-hop low/high-pass channels.
func NewLD2(hops int) (*LD2, error) {
	if hops < 1 {
		return nil, fmt.Errorf("models: LD2 needs hops >= 1, got %d", hops)
	}
	return &LD2{Hops: hops, served: served{family: "LD2"}}, nil
}

// Name implements Trainer.
func (m *LD2) Name() string { return fmt.Sprintf("LD2-K%d", m.Hops) }

// embed precomputes the multi-filter embedding. The spectral channels always run in float64 (the filter recurrences are
// precision-sensitive); a float32 run narrows the result at the boundary.
func (m *LD2) embed(ds *dataset.Dataset) (*tensor.Matrix, error) {
	// Self-looped operator: the low-pass channel is then exactly Â^K (self
	// signal diluted by degree normalization), and the high-pass channel is
	// the complementary L̂^K neighbor-disagreement signal.
	op := graph.NewOperator(ds.G, graph.NormSymmetric, true)
	channels := []spectral.ChannelSpec{
		{Kind: spectral.ChannelIdentity},
		{Kind: spectral.ChannelAdjPower, Hops: m.Hops},
		{Kind: spectral.ChannelLapPower, Hops: m.Hops},
	}
	mats := make([]*tensor.Matrix, len(channels))
	for i, ch := range channels {
		one, err := spectral.MultiFilter(op, ds.X, []spectral.ChannelSpec{ch})
		if err != nil {
			return nil, fmt.Errorf("models: LD2 embedding: %w", err)
		}
		normalizeChannel(one)
		mats[i] = one
	}
	return spectral.ConcatColumns(mats), nil
}

// Fit precomputes the multi-filter embedding and trains the head at the
// tier selected by cfg.DType.
func (m *LD2) Fit(ds *dataset.Dataset, cfg TrainConfig) (*Report, error) {
	return atTier(m, &m.st, ds, cfg, nil, buildLD2[float64], buildLD2[float32])
}

// Restore implements Restorer for LD2.
func (m *LD2) Restore(ds *dataset.Dataset, cfg TrainConfig, snap *ckpt.Snapshot) error {
	return restoreAtTier(m, &m.st, ds, cfg, snap, buildLD2[float64], buildLD2[float32])
}

func buildLD2[T tensor.Elem](m *LD2, ds *dataset.Dataset, key func() uint64, cfg TrainConfig, snap *ckpt.Snapshot, rep *Report) (tierState, error) {
	return buildHead(m, []int{cfg.Hidden}, ds, key, cfg, snap, rep, func(ds *dataset.Dataset) (*tensor.Mat[T], error) {
		emb, err := m.embed(ds)
		if err != nil {
			return nil, err
		}
		return tensor.FromFloat64[T](emb), nil
	})
}

// normalizeChannel rescales a channel matrix so its mean row L2 norm is 1
// — the per-channel normalization LD2 applies so that no spectral view
// dominates the head's input scale.
func normalizeChannel(m *tensor.Matrix) {
	if m.Rows == 0 {
		return
	}
	var total float64
	for i := 0; i < m.Rows; i++ {
		total += tensor.Norm2(m.Row(i))
	}
	mean := total / float64(m.Rows)
	if mean > 0 {
		m.Scale(1 / mean)
	}
}
