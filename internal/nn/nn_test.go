package nn

import (
	"fmt"
	"math"
	"testing"

	"scalegnn/internal/tensor"
)

// sumSquares is a simple deterministic loss L = 0.5 Σ y², with gradient y.
func sumSquares(y *tensor.Matrix) (float64, *tensor.Matrix) {
	var l float64
	for _, v := range y.Data {
		l += 0.5 * v * v
	}
	return l, y.Clone()
}

// gradCheck compares a layer's analytic input gradient against central
// finite differences of the scalar loss, a deterministic function of the
// layer output. Returns the max absolute element-wise error in ∂L/∂x.
func gradCheck(layer Layer, x *tensor.Matrix, loss func(y *tensor.Matrix) (float64, *tensor.Matrix), eps float64) (float64, error) {
	y := layer.Forward(x, true)
	_, gy := loss(y)
	gx := layer.Backward(gy)
	if !gx.SameShape(x) {
		return 0, fmt.Errorf("gradient shape %dx%d != input %dx%d", gx.Rows, gx.Cols, x.Rows, x.Cols)
	}
	var maxErr float64
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp, _ := loss(layer.Forward(x, false))
		x.Data[i] = orig - eps
		lm, _ := loss(layer.Forward(x, false))
		x.Data[i] = orig
		if e := math.Abs((lp-lm)/(2*eps) - gx.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	return maxErr, nil
}

func TestLinearForward(t *testing.T) {
	rng := tensor.NewRand(1)
	l := NewLinear(2, 3, true, rng)
	l.W.Value = tensor.FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	l.B.Value = tensor.FromSlice(1, 3, []float64{0.5, 0.5, 0.5})
	x := tensor.FromSlice(1, 2, []float64{1, 1})
	y := l.Forward(x, false)
	want := []float64{5.5, 7.5, 9.5}
	for j, w := range want {
		if math.Abs(y.At(0, j)-w) > 1e-12 {
			t.Errorf("y[%d] = %v, want %v", j, y.At(0, j), w)
		}
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := tensor.NewRand(2)
	l := NewLinear(4, 3, true, rng)
	x := tensor.RandNormal(5, 4, 1, rng)
	maxErr, err := gradCheck(l, x, sumSquares, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > 1e-5 {
		t.Errorf("Linear input grad error %v", maxErr)
	}
}

func TestLinearWeightGradFiniteDiff(t *testing.T) {
	rng := tensor.NewRand(3)
	l := NewLinear(3, 2, true, rng)
	x := tensor.RandNormal(4, 3, 1, rng)
	lossAt := func() float64 {
		v, _ := sumSquares(l.Forward(x, false))
		return v
	}
	// Analytic gradients.
	y := l.Forward(x, true)
	_, gy := sumSquares(y)
	l.Backward(gy)
	const eps = 1e-6
	for _, p := range l.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossAt()
			p.Value.Data[i] = orig - eps
			lm := lossAt()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if e := math.Abs(numeric - p.Grad.Data[i]); e > 1e-4 {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, p.Grad.Data[i], numeric)
			}
		}
	}
}

func TestReLUGradCheck(t *testing.T) {
	rng := tensor.NewRand(4)
	r := NewReLU()
	x := tensor.RandNormal(6, 5, 1, rng)
	// Avoid kink at exactly 0.
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 1e-3 {
			x.Data[i] = 0.1
		}
	}
	maxErr, err := gradCheck(r, x, sumSquares, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > 1e-5 {
		t.Errorf("ReLU grad error %v", maxErr)
	}
}

func TestMLPGradCheck(t *testing.T) {
	rng := tensor.NewRand(5)
	mlp := NewMLP(MLPConfig{In: 4, Hidden: []int{8}, Out: 3, Bias: true}, rng)
	x := tensor.RandNormal(5, 4, 1, rng)
	maxErr, err := gradCheck(mlp, x, sumSquares, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > 1e-4 {
		t.Errorf("MLP grad error %v", maxErr)
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := tensor.NewRand(6)
	d := NewDropout(0.5, rng)
	x := tensor.New(100, 10)
	x.Fill(1)
	yEval := d.Forward(x, false)
	if !yEval.Equal(x, 0) {
		t.Error("dropout at eval must be identity")
	}
	yTrain := d.Forward(x, true)
	zeros := 0
	for _, v := range yTrain.Data {
		switch v {
		case 0:
			zeros++
		case 2:
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	frac := float64(zeros) / float64(len(yTrain.Data))
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("dropout rate %v far from 0.5", frac)
	}
	// Backward routes only through kept units with the same scaling.
	g := tensor.New(100, 10)
	g.Fill(1)
	gx := d.Backward(g)
	for i, v := range yTrain.Data {
		want := 0.0
		if v != 0 {
			want = 2
		}
		if gx.Data[i] != want {
			t.Fatal("dropout backward inconsistent with forward mask")
		}
	}
}

func TestDropoutPanicsOnBadP(t *testing.T) {
	for _, p := range []float64{1.0, 1.5, -0.3, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDropout(%v) should panic", p)
				}
			}()
			NewDropout(p, tensor.NewRand(1))
		}()
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over k classes: loss = log k, grad = (1/k - onehot)/n.
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Errorf("loss = %v, want log 4", loss)
	}
	if math.Abs(grad.At(0, 0)-(0.25-1)/2) > 1e-12 {
		t.Errorf("grad[0,0] = %v", grad.At(0, 0))
	}
	if math.Abs(grad.At(0, 1)-0.25/2) > 1e-12 {
		t.Errorf("grad[0,1] = %v", grad.At(0, 1))
	}
}

func TestSoftmaxCrossEntropyIntoRejectsBadGrad(t *testing.T) {
	logits := tensor.New(2, 4)
	labels := []int{0, 3}
	for name, grad := range map[string]*tensor.Matrix{
		"grad aliases logits": logits,
		// Larger than logits, so only the shape guard can reject it.
		"grad wrong shape": tensor.New(3, 4),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SoftmaxCrossEntropyInto %s should panic", name)
				}
			}()
			SoftmaxCrossEntropyInto(logits, labels, grad)
		}()
	}
}

func TestSoftmaxCrossEntropyGradFiniteDiff(t *testing.T) {
	rng := tensor.NewRand(7)
	logits := tensor.RandNormal(6, 5, 1, rng)
	labels := []int{0, 1, 2, 3, 4, 2}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const eps = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-grad.Data[i]) > 1e-5 {
			t.Fatalf("CE grad[%d]: analytic %v vs numeric %v", i, grad.Data[i], numeric)
		}
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	logits := tensor.FromSlice(1, 2, []float64{1000, -1000})
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss %v", loss)
	}
	if loss > 1e-9 {
		t.Errorf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	for _, v := range grad.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN gradient")
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := tensor.NewRand(8)
	p := Softmax(tensor.RandNormal(10, 7, 3, rng))
	for i := 0; i < p.Rows; i++ {
		var s float64
		for _, v := range p.Row(i) {
			if v < 0 {
				t.Fatal("negative probability")
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestArgmax(t *testing.T) {
	m := tensor.FromSlice(2, 3, []float64{1, 5, 2, 7, 0, 3})
	got := Argmax(m)
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("Argmax = %v", got)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = Σ (w - target)².
	target := []float64{3, -2, 0.5}
	p := NewParam("w", tensor.New(1, 3))
	opt := NewAdam(0.05)
	for step := 0; step < 2000; step++ {
		for i := range target {
			p.Grad.Data[i] = 2 * (p.Value.Data[i] - target[i])
		}
		opt.Step([]*Param{p})
	}
	for i, tv := range target {
		if math.Abs(p.Value.Data[i]-tv) > 1e-3 {
			t.Errorf("w[%d] = %v, want %v", i, p.Value.Data[i], tv)
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := tensor.NewRand(9)
	x := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	labels := []int{0, 1, 1, 0}
	mlp := NewMLP(MLPConfig{In: 2, Hidden: []int{16}, Out: 2, Bias: true}, rng)
	opt := NewAdam(0.01)
	var loss float64
	//lint:ignore epoch-loop plain-SGD convergence unit test, not a model training schedule
	for epoch := 0; epoch < 800; epoch++ {
		y := mlp.Forward(x, true)
		var grad *tensor.Matrix
		loss, grad = SoftmaxCrossEntropy(y, labels)
		mlp.Backward(grad)
		opt.Step(mlp.Params())
	}
	if loss > 0.05 {
		t.Fatalf("XOR loss %v after training", loss)
	}
	pred := Argmax(mlp.Forward(x, false))
	for i, want := range labels {
		if pred[i] != want {
			t.Errorf("XOR pred[%d] = %d, want %d", i, pred[i], want)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", tensor.New(1, 2))
	p.Grad.Data[0], p.Grad.Data[1] = 3, 4
	norm := ClipGradNorm([]*Param{p}, 1)
	if norm != 5 {
		t.Errorf("pre-clip norm = %v", norm)
	}
	if math.Abs(p.Grad.Data[0]-0.6) > 1e-12 || math.Abs(p.Grad.Data[1]-0.8) > 1e-12 {
		t.Errorf("clipped grads = %v", p.Grad.Data)
	}
	// Below threshold: unchanged.
	p.Grad.Data[0], p.Grad.Data[1] = 0.3, 0.4
	ClipGradNorm([]*Param{p}, 1)
	if p.Grad.Data[0] != 0.3 {
		t.Error("grads below maxNorm should be untouched")
	}
}

func TestNumParams(t *testing.T) {
	rng := tensor.NewRand(10)
	mlp := NewMLP(MLPConfig{In: 4, Hidden: []int{8}, Out: 3, Bias: true}, rng)
	want := 4*8 + 8 + 8*3 + 3
	if got := mlp.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
}

func TestAdamResetClearsState(t *testing.T) {
	opt := NewAdam(0.1)
	p := NewParam("w", tensor.New(2, 2))
	p.Grad.Fill(1)
	opt.Step([]*Param{p})
	if opt.t != 1 || len(opt.m) != 1 || len(opt.v) != 1 {
		t.Fatalf("after one step: t=%d, |m|=%d, |v|=%d", opt.t, len(opt.m), len(opt.v))
	}
	opt.Reset()
	if opt.t != 0 || len(opt.m) != 0 || len(opt.v) != 0 {
		t.Fatalf("after Reset: t=%d, |m|=%d, |v|=%d", opt.t, len(opt.m), len(opt.v))
	}
	// A fresh step after Reset must behave exactly like the first step of a
	// fresh optimizer (bias correction restarts, moments start at zero).
	q := NewParam("w2", tensor.New(2, 2))
	q.Value.Fill(1)
	q.Grad.Fill(1)
	opt.Step([]*Param{q})
	fresh := NewAdam(0.1)
	r := NewParam("w3", tensor.New(2, 2))
	r.Value.Fill(1)
	r.Grad.Fill(1)
	fresh.Step([]*Param{r})
	for i := range q.Value.Data {
		if q.Value.Data[i] != r.Value.Data[i] {
			t.Fatalf("post-Reset step differs from fresh optimizer at %d: %v vs %v",
				i, q.Value.Data[i], r.Value.Data[i])
		}
	}
}

// TestNoInputGradKeepsParamGradients trains two identically seeded MLPs for
// three Adam steps, one with NoInputGrad on the first Linear: Backward
// returns nil there and every parameter gradient and value stays bit-equal,
// dropout masks included.
func TestNoInputGradKeepsParamGradients(t *testing.T) {
	build := func(skip bool) *Sequential {
		net := NewMLP(MLPConfig{In: 6, Hidden: []int{8}, Out: 3, Dropout: 0.3, Bias: true}, tensor.NewRand(5))
		net.Layers[1].(*Linear).NoInputGrad = skip // Layers[0] is the input dropout
		return net
	}
	ref, skip := build(false), build(true)
	x := tensor.RandNormal(20, 6, 1, tensor.NewRand(9))
	labels := make([]int, x.Rows)
	for i := range labels {
		labels[i] = i % 3
	}
	optRef, optSkip := NewAdam(0.01), NewAdam(0.01)
	defer optRef.Reset()
	defer optSkip.Reset()
	sameBits := func(what string, step int, a, b *tensor.Matrix) {
		t.Helper()
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
				t.Fatalf("step %d %s[%d]: %v with the input gradient, %v without", step, what, i, a.Data[i], b.Data[i])
			}
		}
	}
	for step := 0; step < 3; step++ {
		_, g := SoftmaxCrossEntropy(ref.Forward(x, true), labels)
		if gx := ref.Backward(g); gx == nil || !gx.SameShape(x) {
			t.Fatalf("step %d: default Backward returned %v, want ∂L/∂x", step, gx)
		}
		_, g = SoftmaxCrossEntropy(skip.Forward(x, true), labels)
		if gx := skip.Backward(g); gx != nil {
			t.Fatalf("step %d: NoInputGrad Backward returned a %dx%d matrix, want nil", step, gx.Rows, gx.Cols)
		}
		for i, p := range ref.Params() {
			sameBits(p.Name+".Grad", step, p.Grad, skip.Params()[i].Grad)
		}
		optRef.Step(ref.Params())
		optSkip.Step(skip.Params())
		for i, p := range ref.Params() {
			sameBits(p.Name+".Value", step, p.Value, skip.Params()[i].Value)
		}
	}
}
