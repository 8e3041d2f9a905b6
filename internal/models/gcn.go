package models

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/nn"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// GCNConvOf is one graph-convolution layer y = Â x W + b. Its order comes
// from its shape: propagation moves as many columns as the matrix it
// multiplies, so a layer that narrows (Lin.OutF < Lin.InF) transforms
// first, y = Â(xW) + b, and every other layer propagates first, y =
// Lin(Âx). The bias is added after propagation because Â's rows do not
// sum to 1. Either order gives the same y up to rounding.
//
// Backward exploits the symmetry of Â (undirected graphs): Âᵀ = Â. On the
// propagate-first path ∂L/∂x = Â · Lin.Backward(g); on the transform-first
// path ĝ = Â g, ∂L/∂W = xᵀĝ, ∂L/∂b = Σ rows(g) and ∂L/∂x = ĝ Wᵀ. With
// Lin.NoInputGrad set (the first layer of a network, whose input is the
// feature matrix) Backward returns nil: the propagate-first path then runs
// no SpMM, the transform-first path still runs one for ∂L/∂W. The rule
// ignores NoInputGrad, so such a layer with out < in < 2·out propagates
// 2·out columns per step instead of in; no model here builds one.
//
// Propagation buffers are recycled through the shared tensor workspace
// under the nn.Layer lifetime contract; the transform-first path holds
// one N×in matrix (∂L/∂x) and leaves Lin's own buffers empty.
type GCNConvOf[T tensor.Elem] struct {
	Op  *graph.OperatorOf[T]
	Lin *nn.LinearOf[T]

	px, gx tensor.BufOf[T] // Âx, or xW then Âg; ∂L/∂x
	y, wg  tensor.BufOf[T] // transform-first output and ∂L/∂W
	lastX  *tensor.Mat[T]  // transform-first training input
}

// GCNConv is the float64 instantiation of GCNConvOf.
type GCNConv = GCNConvOf[float64]

// narrow reports whether the layer transforms before it propagates.
func (c *GCNConvOf[T]) narrow() bool { return c.Lin.OutF < c.Lin.InF }

// Forward propagates and transforms, in the order narrow picks.
func (c *GCNConvOf[T]) Forward(x *tensor.Mat[T], training bool) *tensor.Mat[T] {
	if !c.narrow() {
		px := c.px.Next(x.Rows, x.Cols)
		c.Op.ApplyInto(x, px)
		return c.Lin.Forward(px, training)
	}
	h := c.px.Next(x.Rows, c.Lin.OutF)
	tensor.MatMulInto(x, c.Lin.W.Value, h)
	y := c.y.Next(x.Rows, c.Lin.OutF)
	c.Op.ApplyInto(h, y)
	if c.Lin.B != nil {
		y.AddRowVector(c.Lin.B.Value.Row(0))
	}
	if training {
		c.lastX = x
	}
	return y
}

// Backward propagates the gradient back through Â and the transform.
func (c *GCNConvOf[T]) Backward(gradOut *tensor.Mat[T]) *tensor.Mat[T] {
	if !c.narrow() {
		g := c.Lin.Backward(gradOut)
		if g == nil {
			return nil
		}
		gx := c.gx.Next(g.Rows, g.Cols)
		c.Op.ApplyInto(g, gx)
		return gx
	}
	if c.lastX == nil {
		panic(fmt.Sprintf("models: GCNConv %d→%d Backward before Forward(training=true)", c.Lin.InF, c.Lin.OutF))
	}
	if c.Lin.B != nil {
		gradOut.AddRowsTo(c.Lin.B.Grad.Row(0))
	}
	g := c.px.Next(gradOut.Rows, gradOut.Cols)
	c.Op.ApplyInto(gradOut, g)
	wg := c.wg.Next(c.Lin.InF, c.Lin.OutF)
	tensor.TMatMulInto(c.lastX, g, wg)
	c.Lin.W.Grad.Add(wg)
	c.lastX = nil // pins the caller's buffer otherwise
	if c.Lin.NoInputGrad {
		return nil
	}
	gx := c.gx.Next(g.Rows, c.Lin.InF)
	tensor.MatMulTInto(g, c.Lin.W.Value, gx)
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

func fitGCN[T tensor.Elem](m *GCN, ds *dataset.Dataset, _ func() uint64, cfg TrainConfig, _ *ckpt.Snapshot, rep *Report) (gcnTrained, error) {
	if err := requireUndirected(m.Name(), ds); err != nil {
		return nil, err
	}
	pcg, rng := newRunRNG(cfg.Seed)
	op := graph.NewOperatorOf[T](ds.G, graph.NormSymmetric, true)
	x := tensor.FromFloat64[T](ds.X)

	net := gcnStack(op, gcnLinears[T](m.Layers, ds, cfg, rng), cfg.Dropout, pcg)
	infer, held := evalForward(net, op, x)
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
			return accuracyAt(infer(), ds.Labels, ds.ValIdx), nil
		},
		Params:    net.Params(),
		Optimizer: opt,
		// Full-batch resident floats: every layer's activations and
		// gradients over all n nodes, and the fit's held Âx.
		PeakFloats: func() int {
			n := ds.G.N
			return 2*n*(ds.X.Cols+(m.Layers-1)*cfg.Hidden+ds.NumClasses) + held + net.NumParams()*3
		},
	})
	if err != nil {
		return nil, err
	}

	logits := infer()
	fillAccuracies(func(idx []int) []int {
		return nn.Argmax(logits.SelectRows(idx))
	}, ds, rep)
	return &gcnState[T]{net: net, src: ds.X, x: x}, nil
}

// evalForward returns fitGCN's validation and final forward, and the floats
// it holds. Eval dropout is the identity, so if the first GCNConvOf
// propagates first they all start from one Âx, computed once outside the
// pool by ApplyRowsInto over every row: no ApplyHook, no distnet round (a
// shard holds the whole graph and X). gcnState.predict recomputes.
func evalForward[T tensor.Elem](net *nn.SequentialOf[T], op *graph.OperatorOf[T], x *tensor.Mat[T]) (func() *tensor.Mat[T], int) {
	i := slices.IndexFunc(net.Layers, func(l nn.LayerOf[T]) bool { _, ok := l.(*GCNConvOf[T]); return ok })
	conv := net.Layers[i].(*GCNConvOf[T])
	if conv.narrow() {
		return func() *tensor.Mat[T] { return net.Forward(x, false) }, 0
	}
	rows := make([]int32, x.Rows)
	for u := range rows {
		rows[u] = int32(u)
	}
	ax := tensor.NewOf[T](x.Rows, x.Cols)
	op.ApplyRowsInto(x, ax, rows)
	rest := nn.NewSequentialOf(net.Layers[i+1:]...)
	return func() *tensor.Mat[T] { return rest.Forward(conv.Lin.Forward(ax, false), false) }, len(ax.Data)
}

// requireUndirected rejects a directed graph for the models whose Backward
// propagates with Â in place of Âᵀ (GCNConvOf): their gradients would be
// wrong, and training would go on silently.
func requireUndirected(model string, ds *dataset.Dataset) error {
	if !ds.G.Undirected() {
		return fmt.Errorf("models: %s requires an undirected graph: its backward pass uses Â for Âᵀ", model)
	}
	return nil
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
