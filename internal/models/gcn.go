package models

import (
	"fmt"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/nn"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// GCNConvOf is one graph-convolution layer y = Lin(Â x): propagation
// followed by a dense transform. Backward exploits the symmetry of Â
// (undirected graphs): ∂L/∂x = Â · Lin.Backward(g) — or nil, with no
// propagation, when Lin.NoInputGrad is set (the first layer of a network,
// whose input is the feature matrix). Propagation buffers are recycled
// through the shared tensor workspace under the nn.Layer lifetime contract.
type GCNConvOf[T tensor.Elem] struct {
	Op  *graph.OperatorOf[T]
	Lin *nn.LinearOf[T]

	px, gx tensor.BufOf[T]
}

// GCNConv is the float64 instantiation of GCNConvOf.
type GCNConv = GCNConvOf[float64]

// Forward propagates then transforms.
func (c *GCNConvOf[T]) Forward(x *tensor.Mat[T], training bool) *tensor.Mat[T] {
	px := c.px.Next(x.Rows, x.Cols)
	c.Op.ApplyInto(x, px)
	return c.Lin.Forward(px, training)
}

// Backward transforms the gradient then propagates it back through Â.
func (c *GCNConvOf[T]) Backward(gradOut *tensor.Mat[T]) *tensor.Mat[T] {
	g := c.Lin.Backward(gradOut)
	if g == nil {
		return nil
	}
	gx := c.gx.Next(g.Rows, g.Cols)
	c.Op.ApplyInto(g, gx)
	return gx
}

// Params returns the dense transform's parameters.
func (c *GCNConvOf[T]) Params() []*nn.ParamOf[T] { return c.Lin.Params() }

var (
	_ nn.Layer            = (*GCNConv)(nil)
	_ nn.LayerOf[float32] = (*GCNConvOf[float32])(nil)
)

// GCN is the canonical full-batch graph convolutional network — the
// baseline whose full-graph activations are the scalability bottleneck the
// rest of the library works around.
type GCN struct {
	Layers int

	st gcnTrained // nil before Fit
}

// gcnTrained is GCN's trained state seen tier-blind (a *gcnState[T]).
type gcnTrained interface {
	predict(ds *dataset.Dataset) []int
}

// gcnState is GCN's trained state at one tier: the network and the
// tier-T view of the features it was fit on.
type gcnState[T tensor.Elem] struct {
	net *nn.SequentialOf[T]
	src *tensor.Matrix // the float64 features x was converted from
	x   *tensor.Mat[T]
}

// predict runs a full-graph forward, reusing the converted features when
// ds carries the matrix the model was fit on.
func (s *gcnState[T]) predict(ds *dataset.Dataset) []int {
	x := s.x
	if ds.X != s.src {
		x = tensor.FromFloat64[T](ds.X)
	}
	return nn.Argmax(s.net.Forward(x, false))
}

// NewGCN constructs a GCN with the given number of convolution layers
// (>= 1; 2 is the classic configuration).
func NewGCN(layers int) (*GCN, error) {
	if layers < 1 {
		return nil, fmt.Errorf("models: GCN needs >= 1 layer, got %d", layers)
	}
	return &GCN{Layers: layers}, nil
}

// Name implements Trainer.
func (m *GCN) Name() string { return fmt.Sprintf("GCN-%dL", m.Layers) }

// Fit trains full-batch with Adam on the training mask, at the tier
// selected by cfg.DType.
func (m *GCN) Fit(ds *dataset.Dataset, cfg TrainConfig) (*Report, error) {
	return atTier(m, &m.st, ds, cfg, nil, fitGCN[float64], fitGCN[float32])
}

func fitGCN[T tensor.Elem](m *GCN, ds *dataset.Dataset, cfg TrainConfig, _ *ckpt.Snapshot, rep *Report) (gcnTrained, error) {
	pcg, rng := newRunRNG(cfg.Seed)
	op := graph.NewOperatorOf[T](ds.G, graph.NormSymmetric, true)
	x := tensor.FromFloat64[T](ds.X)

	var layers []nn.LayerOf[T]
	in := ds.X.Cols
	for l := 0; l < m.Layers; l++ {
		out := cfg.Hidden
		if l == m.Layers-1 {
			out = ds.NumClasses
		}
		if cfg.Dropout > 0 {
			layers = append(layers, nn.NewDropoutOf[T](cfg.Dropout, rng))
		}
		lin := nn.NewLinearOf[T](in, out, true, rng)
		lin.NoInputGrad = l == 0 // ∂L/∂X: one SpMM and one matmul nobody reads
		layers = append(layers, &GCNConvOf[T]{Op: op, Lin: lin})
		if l != m.Layers-1 {
			layers = append(layers, nn.NewReLUOf[T]())
		}
		in = out
	}
	net := nn.NewSequentialOf(layers...)
	opt := nn.NewAdamOf[T](cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	defer opt.Reset()
	err := runLoop(m.Name(), ds, cfg, pcg, rng, rep, train.SpecOf[T]{
		Source: train.FullBatchOf[T]{},
		Step: func(train.BatchOf[T]) error {
			logits := net.Forward(x, true)
			_, grad := maskedLoss(logits, ds.Labels, ds.TrainIdx)
			net.Backward(grad)
			tensor.PutBufOf(grad)
			opt.Step(net.Params())
			return nil
		},
		Validate: func() (float64, error) {
			return accuracyAt(net.Forward(x, false), ds.Labels, ds.ValIdx), nil
		},
		Params:    net.Params(),
		Optimizer: opt,
		// Full-batch resident floats: every layer's activations plus
		// gradients over all n nodes — the term that scales with graph size.
		PeakFloats: func() int {
			n := ds.G.N
			return 2*n*(ds.X.Cols+(m.Layers-1)*cfg.Hidden+ds.NumClasses) + net.NumParams()*3
		},
	})
	if err != nil {
		return nil, err
	}

	logits := net.Forward(x, false)
	fillAccuracies(func(idx []int) []int {
		return nn.Argmax(logits.SelectRows(idx))
	}, ds, rep)
	return &gcnState[T]{net: net, src: ds.X, x: x}, nil
}

// Predict implements Trainer.
func (m *GCN) Predict(ds *dataset.Dataset) ([]int, error) {
	if m.st == nil {
		return nil, fmt.Errorf("models: GCN.Predict before Fit")
	}
	return m.st.predict(ds), nil
}
