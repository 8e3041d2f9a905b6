package nn

import (
	"fmt"
	"math"

	"scalegnn/internal/tensor"
)

// OptimizerOf updates parameters from their accumulated gradients and clears
// the gradients afterwards. Update arithmetic runs in float64 for every
// element type, so the float32 tier rounds each parameter exactly once per
// step rather than compounding low-precision intermediates.
type OptimizerOf[T tensor.Elem] interface {
	Step(params []*ParamOf[T])
}

// Optimizer is the float64 instantiation of OptimizerOf.
type Optimizer = OptimizerOf[float64]

// AdamOf implements the Adam optimizer (Kingma & Ba) with bias correction and
// optional decoupled L2 weight decay, the default trainer for every model in
// this library. Moment state is stored in T (halving optimizer memory on the
// float32 tier) while each per-element update computes in float64.
type AdamOf[T tensor.Elem] struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m map[*ParamOf[T]]*tensor.Mat[T]
	v map[*ParamOf[T]]*tensor.Mat[T]
}

// Adam is the float64 instantiation of AdamOf.
type Adam = AdamOf[float64]

// NewAdam constructs float64 Adam with the standard hyperparameters
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam { return NewAdamOf[float64](lr) }

// NewAdamOf is NewAdam for any element type.
func NewAdamOf[T tensor.Elem](lr float64) *AdamOf[T] {
	return &AdamOf[T]{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*ParamOf[T]]*tensor.Mat[T]),
		v: make(map[*ParamOf[T]]*tensor.Mat[T]),
	}
}

// Step applies one Adam update and zeroes gradients.
func (o *AdamOf[T]) Step(params []*ParamOf[T]) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, v := o.moments(p)
		for i, g := range p.Grad.Data {
			g64 := float64(g)
			if o.WeightDecay != 0 {
				g64 += float64(o.WeightDecay * float64(p.Value.Data[i]))
			}
			m64 := float64(o.Beta1*float64(m.Data[i])) + float64((1-o.Beta1)*g64)
			v64 := float64(o.Beta2*float64(v.Data[i])) + float64((1-o.Beta2)*g64*g64)
			m.Data[i] = T(m64)
			v.Data[i] = T(v64)
			mhat := m64 / bc1
			vhat := v64 / bc2
			p.Value.Data[i] -= T(o.LR * mhat / (math.Sqrt(vhat) + o.Eps))
		}
		p.ZeroGrad()
	}
}

// moments returns p's first/second moment buffers, lazily creating
// zero-initialized state (the Adam definition for an unseen parameter).
func (o *AdamOf[T]) moments(p *ParamOf[T]) (m, v *tensor.Mat[T]) {
	m, ok := o.m[p]
	if !ok {
		m = tensor.GetZeroBufOf[T](p.Value.Rows, p.Value.Cols)
		o.m[p] = m
		o.v[p] = tensor.GetZeroBufOf[T](p.Value.Rows, p.Value.Cols)
	}
	return m, o.v[p]
}

// ExportMoments returns the optimizer's step counter and, for each
// parameter in order, its first then second moment matrix (2*len(params)
// entries). Unseen parameters export freshly created zero moments, so the
// result is always complete. The matrices alias live optimizer state:
// serialize them before the next Step and do not retain them.
func (o *AdamOf[T]) ExportMoments(params []*ParamOf[T]) (step int, moments []*tensor.Mat[T]) {
	moments = make([]*tensor.Mat[T], 0, 2*len(params))
	for _, p := range params {
		m, v := o.moments(p)
		moments = append(moments, m, v)
	}
	return o.t, moments
}

// ImportMoments restores state previously captured by ExportMoments
// (checkpoint resume): moments holds m then v per parameter, shapes must
// match, and step becomes the bias-correction counter. Values are copied
// into the optimizer's own (pooled) buffers.
func (o *AdamOf[T]) ImportMoments(params []*ParamOf[T], step int, moments []*tensor.Mat[T]) error {
	if len(moments) != 2*len(params) {
		return fmt.Errorf("nn: ImportMoments got %d matrices for %d params (want %d)",
			len(moments), len(params), 2*len(params))
	}
	if step < 0 {
		return fmt.Errorf("nn: ImportMoments negative step %d", step)
	}
	for i, p := range params {
		sm, sv := moments[2*i], moments[2*i+1]
		if !sm.SameShape(p.Value) || !sv.SameShape(p.Value) {
			return fmt.Errorf("nn: ImportMoments param %d is %dx%d, moments %dx%d/%dx%d",
				i, p.Value.Rows, p.Value.Cols, sm.Rows, sm.Cols, sv.Rows, sv.Cols)
		}
	}
	for i, p := range params {
		m, v := o.moments(p)
		copy(m.Data, moments[2*i].Data)
		copy(v.Data, moments[2*i+1].Data)
	}
	o.t = step
	return nil
}

// Reset drops all accumulated moment state and the step counter, returning
// the state buffers to the shared tensor workspace. Moment state is keyed
// by *Param and would otherwise accumulate forever in a long-lived process
// whose trainers rebuild their models (and hence their Params) between
// fits: every rebuilt Param is a fresh key, and the old entries can never
// be hit again. Trainers call Reset when training completes (or before
// reusing an optimizer with a reconstructed parameter set).
func (o *AdamOf[T]) Reset() {
	for p, m := range o.m {
		tensor.PutBufOf(m)
		delete(o.m, p)
	}
	for p, v := range o.v {
		tensor.PutBufOf(v)
		delete(o.v, p)
	}
	o.t = 0
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm. It guards the implicit-GNN training
// loops where fixed-point gradients can spike. The norm accumulates in
// float64 for every element type.
func ClipGradNorm[T tensor.Elem](params []*ParamOf[T], maxNorm float64) (norm float64) {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += float64(float64(g) * float64(g))
		}
	}
	norm = math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.Scale(T(scale))
		}
	}
	return
}
