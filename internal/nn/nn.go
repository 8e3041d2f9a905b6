// Package nn is the neural-network substrate of scalegnn: layers with
// hand-written backward passes, losses, and optimizers. The scalable GNN
// designs surveyed by the tutorial all reduce the learnable part of the
// model to MLP-class transformations (the graph part is handled by
// dedicated data-management algorithms), so this package provides exactly
// that: Linear / ReLU / Dropout layers composed into Sequential networks,
// softmax cross-entropy, and Adam.
//
// Every module is generic over tensor.Elem: the float64 instantiations
// (exposed under the historical names Param, Layer, Linear, ...) are the
// bitwise-reproducible reference path, and the float32 instantiations form
// the raw-speed tier. Transcendentals (exp, log, sqrt) and loss/stat
// accumulations always run in float64 regardless of T, so the float32 tier
// loses precision only where values are stored, not where they are reduced.
//
// Gradients are exact; every layer's backward pass is unit-tested against
// finite differences.
package nn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"scalegnn/internal/tensor"
)

// ParamOf is a learnable parameter with its accumulated gradient.
type ParamOf[T tensor.Elem] struct {
	Name  string
	Value *tensor.Mat[T]
	Grad  *tensor.Mat[T]
}

// Param is the float64 instantiation of ParamOf.
type Param = ParamOf[float64]

// NewParam allocates a parameter and its zero gradient. The element type is
// inferred from value.
func NewParam[T tensor.Elem](name string, value *tensor.Mat[T]) *ParamOf[T] {
	return &ParamOf[T]{Name: name, Value: value, Grad: tensor.NewOf[T](value.Rows, value.Cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *ParamOf[T]) ZeroGrad() { p.Grad.Zero() }

// NumValues returns the number of scalar parameters.
func (p *ParamOf[T]) NumValues() int { return len(p.Value.Data) }

// LayerOf is a differentiable module. Forward consumes a batch (rows =
// samples) and must retain whatever it needs for Backward; Backward
// consumes ∂L/∂output and returns ∂L/∂input, accumulating parameter
// gradients along the way. Layers are stateful across a single
// forward/backward pair and must not be shared between concurrent batches.
//
// Buffer lifetime: layers return matrices drawn from the shared tensor
// workspace and recycle them on the layer's next pass, so a Forward or
// Backward result is valid only until that layer runs again. Training loops
// (forward → loss → backward → step, then the next pass) satisfy this
// naturally; clone any output that must outlive the next pass, and run
// Backward before any intervening Forward on the same network.
//
// Backward returns nil when the layer was built not to compute ∂L/∂input
// (LinearOf.NoInputGrad): nothing upstream of such a layer can be trained,
// so whoever drives the layers stops there (SequentialOf.Backward does).
type LayerOf[T tensor.Elem] interface {
	Forward(x *tensor.Mat[T], training bool) *tensor.Mat[T]
	Backward(gradOut *tensor.Mat[T]) *tensor.Mat[T]
	Params() []*ParamOf[T]
}

// Layer is the float64 instantiation of LayerOf.
type Layer = LayerOf[float64]

// LinearOf is a fully-connected layer y = xW + b.
//
// Forward/backward outputs live in pooled workspace buffers that are
// recycled on the next call (see tensor.Buf): a result is valid until the
// layer's next pass, which is exactly the lifetime training loops need.
// Clone anything that must survive longer.
type LinearOf[T tensor.Elem] struct {
	W, B *ParamOf[T]
	InF  int
	OutF int

	// NoInputGrad makes Backward accumulate the parameter gradients only
	// and return nil instead of ∂L/∂x = g Wᵀ. A model sets it on the layer
	// that consumes its input data, whose gradient nobody reads; parameter
	// gradients are unaffected. Off by default.
	NoInputGrad bool

	hasB  bool
	lastX *tensor.Mat[T]

	y, gx, wg tensor.BufOf[T] // pooled output / input-grad / weight-grad buffers
}

// Linear is the float64 instantiation of LinearOf.
type Linear = LinearOf[float64]

// NewLinear constructs a float64 Linear layer with Glorot-uniform weights
// and zero bias. If bias is false the layer is purely linear.
func NewLinear(inF, outF int, bias bool, rng *rand.Rand) *Linear {
	return NewLinearOf[float64](inF, outF, bias, rng)
}

// NewLinearOf is NewLinear for any element type. Weight initialization
// draws from rng in float64 and narrows, so a float32 layer consumes the
// RNG stream exactly like its float64 twin.
func NewLinearOf[T tensor.Elem](inF, outF int, bias bool, rng *rand.Rand) *LinearOf[T] {
	l := &LinearOf[T]{
		W:    NewParam(fmt.Sprintf("linear_%dx%d.W", inF, outF), tensor.GlorotUniformOf[T](inF, outF, rng)),
		InF:  inF,
		OutF: outF,
		hasB: bias,
	}
	if bias {
		l.B = NewParam(fmt.Sprintf("linear_%dx%d.b", inF, outF), tensor.NewOf[T](1, outF))
	}
	return l
}

// Forward computes xW (+ b).
func (l *LinearOf[T]) Forward(x *tensor.Mat[T], training bool) *tensor.Mat[T] {
	if x.Cols != l.InF {
		panic(fmt.Sprintf("nn: Linear input cols %d != inF %d", x.Cols, l.InF))
	}
	if training {
		l.lastX = x
	}
	y := l.y.Next(x.Rows, l.OutF)
	tensor.MatMulInto(x, l.W.Value, y)
	if l.hasB {
		y.AddRowVector(l.B.Value.Row(0))
	}
	return y
}

// Backward accumulates ∂L/∂W = xᵀ g and ∂L/∂b = Σ rows(g), returning
// ∂L/∂x = g Wᵀ (nil under NoInputGrad).
func (l *LinearOf[T]) Backward(gradOut *tensor.Mat[T]) *tensor.Mat[T] {
	if l.lastX == nil {
		panic("nn: Linear.Backward before Forward(training=true)")
	}
	wg := l.wg.Next(l.InF, l.OutF)
	tensor.TMatMulInto(l.lastX, gradOut, wg)
	l.lastX = nil // pins the caller's buffer otherwise
	l.W.Grad.Add(wg)
	if l.hasB {
		brow := l.B.Grad.Row(0)
		for i := 0; i < gradOut.Rows; i++ {
			for j, v := range gradOut.Row(i) {
				brow[j] += v
			}
		}
	}
	if l.NoInputGrad {
		return nil
	}
	gx := l.gx.Next(gradOut.Rows, l.InF)
	tensor.MatMulTInto(gradOut, l.W.Value, gx)
	return gx
}

// Params returns the layer's learnables.
func (l *LinearOf[T]) Params() []*ParamOf[T] {
	if l.hasB {
		return []*ParamOf[T]{l.W, l.B}
	}
	return []*ParamOf[T]{l.W}
}

// ReLUOf is the rectified-linear activation. Outputs live in pooled buffers
// recycled on the next call, like Linear's.
type ReLUOf[T tensor.Elem] struct {
	mask []uint8 // keep bits of the last training Forward
	y, g tensor.BufOf[T]
}

// ReLU is the float64 instantiation of ReLUOf.
type ReLU = ReLUOf[float64]

// NewReLU returns a float64 ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// NewReLUOf returns a ReLU layer for any element type.
func NewReLUOf[T tensor.Elem]() *ReLUOf[T] { return &ReLUOf[T]{} }

// Forward zeroes entries that are not positive (NaN included).
func (r *ReLUOf[T]) Forward(x *tensor.Mat[T], training bool) *tensor.Mat[T] {
	y := r.y.Next(x.Rows, x.Cols)
	var keep []uint8
	if training {
		r.mask = growMask(r.mask, len(y.Data))
		keep = r.mask
	}
	tensor.ReLUInto(y.Data, x.Data, keep)
	return y
}

// Backward zeroes the gradient where the input was not positive.
func (r *ReLUOf[T]) Backward(gradOut *tensor.Mat[T]) *tensor.Mat[T] {
	checkMask("ReLU", r.mask, len(gradOut.Data))
	g := r.g.Next(gradOut.Rows, gradOut.Cols)
	tensor.GateInto(g.Data, gradOut.Data, r.mask)
	return g
}

// Params returns nil; ReLU has no learnables.
func (r *ReLUOf[T]) Params() []*ParamOf[T] { return nil }

// growMask returns m resized to n keep bits, reallocating only to grow.
func growMask(m []uint8, n int) []uint8 {
	if m == nil || cap(m) < n {
		return make([]uint8, n)
	}
	return m[:n]
}

// checkMask panics unless a training Forward recorded a mask for exactly
// the n values a Backward is handed.
func checkMask(layer string, mask []uint8, n int) {
	if mask == nil {
		panic("nn: " + layer + ".Backward before Forward(training=true)")
	}
	if len(mask) != n {
		panic(fmt.Sprintf("nn: %s.Backward gradient has %d values, the last Forward(training=true) had %d", layer, n, len(mask)))
	}
}

// DropoutOf randomly zeroes entries during training with probability P,
// scaling survivors by 1/(1-P) (inverted dropout). At inference it is the
// identity.
type DropoutOf[T tensor.Elem] struct {
	P    float64
	src  rand.Source
	keep []uint8 // keep bits of the last training Forward
	y, g tensor.BufOf[T]
}

// Dropout is the float64 instantiation of DropoutOf.
type Dropout = DropoutOf[float64]

// NewDropout constructs a float64 dropout layer with drop probability p.
func NewDropout(p float64, src rand.Source) *Dropout {
	return NewDropoutOf[float64](p, src)
}

// NewDropoutOf constructs a dropout layer for any element type. Forward
// draws its mask from src as tensor.DropoutInto defines: one src.Uint64
// per element whatever T, so the stream and the mask do not depend on T. A
// *rand.PCG source, which the model families pass, fills the mask on every
// core with the same draws; a dropped entry is +0. p must be in [0, 1);
// NaN panics too.
func NewDropoutOf[T tensor.Elem](p float64, src rand.Source) *DropoutOf[T] {
	if !(p >= 0 && p < 1) {
		panic(fmt.Sprintf("nn: dropout p=%v outside [0,1)", p))
	}
	return &DropoutOf[T]{P: p, src: src}
}

// Forward applies inverted dropout when training.
func (d *DropoutOf[T]) Forward(x *tensor.Mat[T], training bool) *tensor.Mat[T] {
	if !training || d.P == 0 {
		return x
	}
	y := d.y.Next(x.Rows, x.Cols)
	d.keep = growMask(d.keep, len(x.Data))
	tensor.DropoutInto(y.Data, x.Data, d.keep, d.P, d.src)
	return y
}

// Backward routes gradient only through kept entries.
func (d *DropoutOf[T]) Backward(gradOut *tensor.Mat[T]) *tensor.Mat[T] {
	if d.P == 0 {
		return gradOut
	}
	checkMask("Dropout", d.keep, len(gradOut.Data))
	g := d.g.Next(gradOut.Rows, gradOut.Cols)
	in := gradOut.Data
	keep, out := d.keep[:len(in)], g.Data[:len(in)]
	scale := T(1 / (1 - d.P))
	for i, v := range in {
		out[i] = tensor.Gate(v*scale, keep[i])
	}
	return g
}

// Params returns nil; Dropout has no learnables.
func (d *DropoutOf[T]) Params() []*ParamOf[T] { return nil }

// SequentialOf chains layers.
type SequentialOf[T tensor.Elem] struct {
	Layers []LayerOf[T]
}

// Sequential is the float64 instantiation of SequentialOf.
type Sequential = SequentialOf[float64]

// NewSequential builds a float64 sequential container.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// NewSequentialOf builds a sequential container for any element type.
func NewSequentialOf[T tensor.Elem](layers ...LayerOf[T]) *SequentialOf[T] {
	return &SequentialOf[T]{Layers: layers}
}

// Forward runs all layers in order.
func (s *SequentialOf[T]) Forward(x *tensor.Mat[T], training bool) *tensor.Mat[T] {
	for _, l := range s.Layers {
		x = l.Forward(x, training)
	}
	return x
}

// Backward runs the layers in reverse, down to the first one that returns
// no input gradient (see LayerOf), and returns what that layer returned.
func (s *SequentialOf[T]) Backward(gradOut *tensor.Mat[T]) *tensor.Mat[T] {
	for i := len(s.Layers) - 1; i >= 0 && gradOut != nil; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// Params concatenates all layer parameters.
func (s *SequentialOf[T]) Params() []*ParamOf[T] {
	var ps []*ParamOf[T]
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total scalar parameter count of the network.
func (s *SequentialOf[T]) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += p.NumValues()
	}
	return n
}

// MLPConfig describes a multi-layer perceptron.
type MLPConfig struct {
	In      int
	Hidden  []int // hidden widths; empty means a single linear layer
	Out     int
	Dropout float64
	Bias    bool
}

// NewMLP builds a float64 In -> Hidden... -> Out network with ReLU between
// layers and dropout before each linear layer (the standard decoupled-GNN
// classifier shape).
func NewMLP(cfg MLPConfig, src rand.Source) *Sequential {
	return NewMLPOf[float64](cfg, src)
}

// NewMLPOf is NewMLP for any element type; layer construction consumes src
// identically across dtypes. The Linear initialisers draw through a
// rand.Rand view of src, which holds no state of its own, and the dropout
// layers take src itself.
func NewMLPOf[T tensor.Elem](cfg MLPConfig, src rand.Source) *SequentialOf[T] {
	rng := rand.New(src)
	var layers []LayerOf[T]
	dims := append([]int{cfg.In}, cfg.Hidden...)
	dims = append(dims, cfg.Out)
	for i := 0; i+1 < len(dims); i++ {
		if cfg.Dropout > 0 {
			layers = append(layers, NewDropoutOf[T](cfg.Dropout, src))
		}
		layers = append(layers, NewLinearOf[T](dims[i], dims[i+1], cfg.Bias, rng))
		if i+2 < len(dims) {
			layers = append(layers, NewReLUOf[T]())
		}
	}
	return NewSequentialOf(layers...)
}

// SoftmaxCrossEntropy computes mean cross-entropy over rows of logits
// against integer labels, returning the scalar loss and ∂L/∂logits.
// Rows are softmax-normalized with the max-subtraction trick for stability.
func SoftmaxCrossEntropy[T tensor.Elem](logits *tensor.Mat[T], labels []int) (float64, *tensor.Mat[T]) {
	grad := tensor.NewOf[T](logits.Rows, logits.Cols)
	return SoftmaxCrossEntropyInto(logits, labels, grad), grad
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing ∂L/∂logits into
// grad (same shape as logits, fully overwritten) — the zero-allocation form
// for pooled training loops. grad may not alias logits. Exponentials, the
// normalizer, and the loss accumulate in float64 for every element type.
func SoftmaxCrossEntropyInto[T tensor.Elem](logits *tensor.Mat[T], labels []int, grad *tensor.Mat[T]) float64 {
	if logits.Rows != len(labels) {
		panic(fmt.Sprintf("nn: %d logit rows vs %d labels", logits.Rows, len(labels)))
	}
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropyInto grad %dx%d, want %dx%d", grad.Rows, grad.Cols, logits.Rows, logits.Cols))
	}
	if logits.Rows == 0 {
		return 0
	}
	if tensor.Overlaps(grad.Data, logits.Data) {
		panic("nn: SoftmaxCrossEntropyInto grad aliases logits")
	}
	var loss float64
	invN := 1 / float64(logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		max := float64(row[0])
		for _, v := range row[1:] {
			if float64(v) > max {
				max = float64(v)
			}
		}
		var sum float64
		grow := grad.Row(i)
		for j, v := range row {
			e := math.Exp(float64(v) - max)
			grow[j] = T(e)
			sum += e
		}
		y := labels[i]
		if y < 0 || y >= logits.Cols {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, logits.Cols))
		}
		loss += -(float64(row[y]) - max - math.Log(sum))
		for j := range grow {
			grow[j] = T(float64(grow[j]) / sum * invN)
		}
		grow[y] -= T(invN)
	}
	return loss * invN
}

// Softmax returns row-wise softmax probabilities of logits.
func Softmax[T tensor.Elem](logits *tensor.Mat[T]) *tensor.Mat[T] {
	out := logits.Clone()
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		max := float64(row[0])
		for _, v := range row[1:] {
			if float64(v) > max {
				max = float64(v)
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v) - max)
			row[j] = T(e)
			sum += e
		}
		for j := range row {
			row[j] = T(float64(row[j]) / sum)
		}
	}
	return out
}

// Argmax returns the index of the largest entry in each row.
func Argmax[T tensor.Elem](m *tensor.Mat[T]) []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}
