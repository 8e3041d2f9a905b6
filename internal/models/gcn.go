package models

import (
	"fmt"
	"math/rand/v2"

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

	net := gcnStack(op, gcnLinears[T](m.Layers, ds, cfg, rng), cfg.Dropout, pcg)
	opt := nn.NewAdamOf[T](cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	defer opt.Reset()
	err := runLoop(m.Name(), ds, cfg, pcg, rep, train.SpecOf[T]{
		Step: func([]int) error {
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

// gcnLinears returns the dense transforms of a layers-deep GCN: in →
// hidden… → classes. The first carries NoInputGrad — its input is the
// feature matrix, and ∂L/∂X is one SpMM and one matmul nobody reads.
func gcnLinears[T tensor.Elem](layers int, ds *dataset.Dataset, cfg TrainConfig, rng *rand.Rand) []*nn.LinearOf[T] {
	lins := make([]*nn.LinearOf[T], layers)
	in := ds.X.Cols
	for l := range lins {
		out := cfg.Hidden
		if l == layers-1 {
			out = ds.NumClasses
		}
		lins[l] = nn.NewLinearOf[T](in, out, true, rng)
		in = out
	}
	lins[0].NoInputGrad = true
	return lins
}

// gcnStack is the network GCN and ClusterGCN train: a GCNConvOf over op per
// Linear, ReLU between them, and dropout before each, drawing from src,
// when dropout > 0.
func gcnStack[T tensor.Elem](op *graph.OperatorOf[T], lins []*nn.LinearOf[T], dropout float64, src rand.Source) *nn.SequentialOf[T] {
	var layers []nn.LayerOf[T]
	for l, lin := range lins {
		if dropout > 0 {
			layers = append(layers, nn.NewDropoutOf[T](dropout, src))
		}
		layers = append(layers, &GCNConvOf[T]{Op: op, Lin: lin})
		if l != len(lins)-1 {
			layers = append(layers, nn.NewReLUOf[T]())
		}
	}
	return nn.NewSequentialOf(layers...)
}

// Predict implements Trainer.
func (m *GCN) Predict(ds *dataset.Dataset) ([]int, error) {
	if m.st == nil {
		return nil, fmt.Errorf("models: GCN.Predict before Fit")
	}
	return m.st.predict(ds), nil
}
