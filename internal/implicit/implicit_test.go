package implicit

import (
	"math"
	"testing"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

func setup(t *testing.T, n int) (*graph.Operator, *tensor.Matrix, *tensor.Matrix) {
	t.Helper()
	rng := tensor.NewRand(uint64(n))
	g := graph.ErdosRenyi(n, n*3, rng)
	op := graph.NewOperator(g, graph.NormSymmetric, true)
	b := tensor.RandNormal(n, 4, 1, rng)
	w := tensor.RandNormal(4, 4, 0.2, rng)
	// Symmetrize and shrink inside the contraction region.
	wt := w.T()
	w.Add(wt)
	w.Scale(0.5)
	ProjectSpectralNorm(w, 0.9)
	return op, b, w
}

func TestSolveReachesFixedPoint(t *testing.T) {
	op, b, w := setup(t, 40)
	for _, scale := range []int{1, 2, 3} {
		s, err := NewSolver(op, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		s.Scale = scale
		z, iters, err := s.Solve(b, w)
		if err != nil {
			t.Fatal(err)
		}
		if iters == 0 || iters == s.MaxIter {
			t.Errorf("scale %d: suspicious iteration count %d", scale, iters)
		}
		// Verify residual: Z - (γ P^s Z W + B) ≈ 0, with P applied s times.
		pz := z
		for range scale {
			pz = op.Apply(pz)
		}
		rhs := tensor.MatMul(pz, w)
		rhs.Scale(0.8)
		rhs.Add(b)
		rhs.Sub(z)
		if res := rhs.FrobeniusNorm(); res > 1e-6 {
			t.Errorf("scale %d: fixed-point residual %v", scale, res)
		}
	}
}

func TestSolveEigMatchesPicard(t *testing.T) {
	op, b, w := setup(t, 30)
	s, err := NewSolver(op, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	s.Tol = 1e-11
	zp, _, err := s.Solve(b, w)
	if err != nil {
		t.Fatal(err)
	}
	ze, cgIters, err := s.SolveEig(b, w)
	if err != nil {
		t.Fatal(err)
	}
	if cgIters == 0 {
		t.Error("CG did no work")
	}
	if !zp.Equal(ze, 1e-6) {
		d := zp.Clone()
		d.Sub(ze)
		t.Errorf("Picard and eigen solve disagree (max diff %v)", d.MaxAbs())
	}
}

func TestSolveEigRejectsAsymmetric(t *testing.T) {
	op, b, _ := setup(t, 10)
	s, _ := NewSolver(op, 0.5)
	w := tensor.FromSlice(4, 4, []float64{
		0.1, 0.5, 0, 0,
		0, 0.1, 0, 0,
		0, 0, 0.1, 0,
		0, 0, 0, 0.1,
	})
	if _, _, err := s.SolveEig(b, w); err == nil {
		t.Error("asymmetric W should be rejected")
	}
}

func TestAdjointIsExactGradient(t *testing.T) {
	// Finite-difference check: L = 0.5‖Z‖²; ∂L/∂B must equal the adjoint
	// solution with G = Z.
	op, b, w := setup(t, 15)
	s, err := NewSolver(op, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	s.Tol = 1e-12
	loss := func(bm *tensor.Matrix) float64 {
		z, _, err := s.Solve(bm, w)
		if err != nil {
			t.Fatal(err)
		}
		var l float64
		for _, v := range z.Data {
			l += 0.5 * v * v
		}
		return l
	}
	z, _, err := s.Solve(b, w)
	if err != nil {
		t.Fatal(err)
	}
	gradB, _, err := s.Solve(z, w.T())
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-6
	for _, i := range []int{0, 7, 23, 41, 59} {
		orig := b.Data[i]
		b.Data[i] = orig + eps
		lp := loss(b)
		b.Data[i] = orig - eps
		lm := loss(b)
		b.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-gradB.Data[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("∂L/∂B[%d]: adjoint %v vs numeric %v", i, gradB.Data[i], numeric)
		}
	}
}

func TestGradWIsExact(t *testing.T) {
	op, b, w := setup(t, 12)
	for _, scale := range []int{1, 2, 3} {
		s, err := NewSolver(op, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		s.Tol = 1e-12
		s.Scale = scale
		loss := func() float64 {
			z, _, err := s.Solve(b, w)
			if err != nil {
				t.Fatal(err)
			}
			var l float64
			for _, v := range z.Data {
				l += 0.5 * v * v
			}
			return l
		}
		z, _, err := s.Solve(b, w)
		if err != nil {
			t.Fatal(err)
		}
		u, _, err := s.Solve(z, w.T())
		if err != nil {
			t.Fatal(err)
		}
		gradW := tensor.New(w.Rows, w.Cols)
		s.GradW(z, u, gradW)
		const eps = 1e-6
		for i := range w.Data {
			orig := w.Data[i]
			w.Data[i] = orig + eps
			lp := loss()
			w.Data[i] = orig - eps
			lm := loss()
			w.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-gradW.Data[i]) > 1e-3*(1+math.Abs(numeric)) {
				t.Fatalf("scale %d: ∂L/∂W[%d]: analytic %v vs numeric %v", scale, i, gradW.Data[i], numeric)
			}
		}
	}
}

func TestLongRangePropagation(t *testing.T) {
	// On a path graph, an implicit layer must carry signal end to end —
	// the receptive-field claim of §3.2.3. Inject mass at node 0 only and
	// check the far end receives a nonzero state.
	n := 50
	g := graph.Path(n)
	op := graph.NewOperator(g, graph.NormSymmetric, true)
	s, err := NewSolver(op, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxIter = 3000
	s.Tol = 1e-13
	b := tensor.New(n, 1)
	b.Set(0, 0, 1)
	w := tensor.FromSlice(1, 1, []float64{0.999})
	z, _, err := s.Solve(b, w)
	if err != nil {
		t.Fatal(err)
	}
	if z.At(n-1, 0) <= 0 {
		t.Errorf("far-end state = %v; implicit layer failed to propagate", z.At(n-1, 0))
	}
	// A 3-hop explicit propagation reaches nothing past hop 3.
	p3 := op.PowerApply(b, 3)
	if p3.At(10, 0) != 0 {
		t.Error("sanity: 3-hop propagation should not reach node 10")
	}
}

func TestNewSolverValidation(t *testing.T) {
	op, _, _ := setup(t, 5)
	if _, err := NewSolver(op, 0); err == nil {
		t.Error("gamma=0 should error")
	}
	if _, err := NewSolver(op, 1); err == nil {
		t.Error("gamma=1 should error")
	}
}

func TestSpectralNorm(t *testing.T) {
	// Diagonal matrix: spectral norm is the max |diagonal|.
	w := tensor.New(3, 3)
	w.Set(0, 0, 2)
	w.Set(1, 1, -5)
	w.Set(2, 2, 1)
	if got := spectralNorm(w, 50); math.Abs(got-5) > 1e-6 {
		t.Errorf("σ = %v, want 5", got)
	}
	if spectralNorm(tensor.New(0, 0), 5) != 0 {
		t.Error("empty matrix norm should be 0")
	}
}

func TestProjectSpectralNorm(t *testing.T) {
	rng := tensor.NewRand(99)
	w := tensor.RandNormal(6, 6, 2, rng)
	pre := ProjectSpectralNorm(w, 0.5)
	if pre <= 0.5 {
		t.Skip("random matrix unexpectedly small")
	}
	post := spectralNorm(w, 50)
	if post > 0.5+1e-6 {
		t.Errorf("post-projection σ = %v > 0.5", post)
	}
	// Already-small matrices are untouched.
	w2 := tensor.New(2, 2)
	w2.Set(0, 0, 0.1)
	before := w2.Clone()
	ProjectSpectralNorm(w2, 1)
	if !w2.Equal(before, 0) {
		t.Error("projection modified an already-feasible matrix")
	}
}

func TestSolveDetectsDivergence(t *testing.T) {
	op, b, _ := setup(t, 10)
	s, _ := NewSolver(op, 0.99)
	// ‖W‖ far above 1/γ: Picard must diverge and report it.
	w := tensor.New(4, 4)
	for i := 0; i < 4; i++ {
		w.Set(i, i, 50)
	}
	if _, _, err := s.Solve(b, w); err == nil {
		t.Error("expected divergence error")
	}
}

func BenchmarkPicardSolve(b *testing.B) {
	rng := tensor.NewRand(1)
	g := graph.BarabasiAlbert(2000, 5, rng)
	op := graph.NewOperator(g, graph.NormSymmetric, true)
	bm := tensor.RandNormal(g.N, 16, 1, rng)
	w := tensor.RandNormal(16, 16, 0.1, rng)
	wt := w.T()
	w.Add(wt)
	w.Scale(0.5)
	ProjectSpectralNorm(w, 0.9)
	s, _ := NewSolver(op, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(bm, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigenSolve(b *testing.B) {
	rng := tensor.NewRand(1)
	g := graph.BarabasiAlbert(2000, 5, rng)
	op := graph.NewOperator(g, graph.NormSymmetric, true)
	bm := tensor.RandNormal(g.N, 16, 1, rng)
	w := tensor.RandNormal(16, 16, 0.1, rng)
	wt := w.T()
	w.Add(wt)
	w.Scale(0.5)
	ProjectSpectralNorm(w, 0.9)
	s, _ := NewSolver(op, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SolveEig(bm, w); err != nil {
			b.Fatal(err)
		}
	}
}
