package spectral

import (
	"math"
	"testing"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

func symOp(t *testing.T, g *graph.CSR) *graph.Operator {
	t.Helper()
	return graph.NewOperator(g, graph.NormSymmetric, false)
}

func TestLowPassResponse(t *testing.T) {
	f := lowPass(3)
	if got := f.EvalScalar(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("h(0) = %v, want 1", got)
	}
	if got := f.EvalScalar(2); math.Abs(got) > 1e-12 {
		t.Errorf("h(2) = %v, want 0", got)
	}
	if got := f.EvalScalar(1); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("h(1) = %v, want (1/2)^3", got)
	}
}

func TestHighPassResponse(t *testing.T) {
	f := highPass(2)
	if got := f.EvalScalar(0); math.Abs(got) > 1e-12 {
		t.Errorf("h(0) = %v, want 0", got)
	}
	if got := f.EvalScalar(2); math.Abs(got-1) > 1e-12 {
		t.Errorf("h(2) = %v, want 1", got)
	}
}

func TestPPRFilterResponse(t *testing.T) {
	// At λ=0 (adjacency eigenvalue 1) the truncated PPR response is
	// α Σ_{k≤K} (1-α)^k.
	alpha, K := 0.2, 10
	f := pprFilter(alpha, K)
	var want float64
	for k := 0; k <= K; k++ {
		want += alpha * math.Pow(1-alpha, float64(k))
	}
	if got := f.EvalScalar(0); math.Abs(got-want) > 1e-10 {
		t.Errorf("h(0) = %v, want %v", got, want)
	}
}

// TestFilterApplyMatchesEigendecomposition is the central correctness test:
// applying the polynomial by sparse recurrence must equal filtering each
// eigencomponent by h(λ_i).
func TestFilterApplyMatchesEigendecomposition(t *testing.T) {
	rng := tensor.NewRand(1)
	g := graph.ErdosRenyi(20, 45, rng)
	op := symOp(t, g)
	vals, vecs := laplacianEigen(op)
	x := tensor.RandNormal(g.N, 3, 1, rng)

	filters := map[string]*Filter{
		"lowpass3":  lowPass(3),
		"highpass2": highPass(2),
		"ppr":       pprFilter(0.15, 8),
		"cheb":      {Basis: Chebyshev, Coeffs: []float64{0.5, -0.3, 0.2, 0.1}},
	}
	for name, f := range filters {
		fast := f.Apply(op, x)
		want := applyViaEigen(vals, vecs, f, x)
		if !fast.Equal(want, 1e-8) {
			t.Errorf("%s: recurrence disagrees with eigendecomposition (max diff %v)",
				name, maxDiff(fast, want))
		}
	}
}

func maxDiff(a, b *tensor.Matrix) float64 {
	d := a.Clone()
	d.Sub(b)
	return d.MaxAbs()
}

// laplacianEigen densely diagonalizes L = I - P.
func laplacianEigen(op *graph.Operator) ([]float64, *tensor.Matrix) {
	n := op.G.N
	l := tensor.New(n, n)
	dense := op.Dense()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := -dense.At(i, j)
			if i == j {
				v++
			}
			l.Set(i, j, v)
		}
	}
	return JacobiEigen(l, 100)
}

// applyViaEigen computes h(L)X = V h(Λ) Vᵀ X.
func applyViaEigen(vals []float64, vecs *tensor.Matrix, f *Filter, x *tensor.Matrix) *tensor.Matrix {
	vtx := tensor.TMatMul(vecs, x)
	for i := 0; i < vtx.Rows; i++ {
		h := f.EvalScalar(vals[i])
		row := vtx.Row(i)
		for j := range row {
			row[j] *= h
		}
	}
	return tensor.MatMul(vecs, vtx)
}

func TestLaplacianSpectrumRange(t *testing.T) {
	rng := tensor.NewRand(2)
	g := graph.ErdosRenyi(25, 60, rng)
	op := symOp(t, g)
	vals, _ := laplacianEigen(op)
	if math.Abs(vals[0]) > 1e-8 {
		t.Errorf("λ_min = %v, want 0", vals[0])
	}
	for _, v := range vals {
		if v < -1e-8 || v > 2+1e-8 {
			t.Fatalf("eigenvalue %v outside [0,2]", v)
		}
	}
}

func TestBipartiteLambdaMaxIsTwo(t *testing.T) {
	// Even cycles are bipartite: λ_max = 2 exactly.
	g, err := graph.FromEdges(8, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}})
	if err != nil {
		t.Fatal(err)
	}
	op := symOp(t, g)
	vals, _ := laplacianEigen(op)
	if math.Abs(vals[len(vals)-1]-2) > 1e-8 {
		t.Errorf("bipartite λ_max = %v, want 2", vals[len(vals)-1])
	}
}

func TestJacobiEigenOrthonormal(t *testing.T) {
	rng := tensor.NewRand(5)
	a := tensor.RandNormal(8, 8, 1, rng)
	// Symmetrize.
	at := a.T()
	a.Add(at)
	vals, vecs := JacobiEigen(a, 100)
	// VᵀV = I.
	vtv := tensor.TMatMul(vecs, vecs)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(vtv.At(i, j)-want) > 1e-8 {
				t.Fatalf("VᵀV[%d,%d] = %v", i, j, vtv.At(i, j))
			}
		}
	}
	// A v_i = λ_i v_i.
	for i := 0; i < 8; i++ {
		v := make([]float64, 8)
		for r := 0; r < 8; r++ {
			v[r] = vecs.At(r, i)
		}
		av := tensor.MatMul(a, tensor.FromSlice(8, 1, v)).Data
		for r := 0; r < 8; r++ {
			if math.Abs(av[r]-vals[i]*v[r]) > 1e-7 {
				t.Fatalf("eigenpair %d violated at row %d", i, r)
			}
		}
	}
	// Ascending order.
	for i := 1; i < 8; i++ {
		if vals[i] < vals[i-1] {
			t.Fatal("eigenvalues not sorted")
		}
	}
}

func TestMultiFilterShapeAndContent(t *testing.T) {
	rng := tensor.NewRand(7)
	g := graph.ErdosRenyi(12, 25, rng)
	op := symOp(t, g)
	x := tensor.RandNormal(g.N, 4, 1, rng)
	emb, err := MultiFilter(op, x, []ChannelSpec{
		{Kind: ChannelIdentity},
		{Kind: ChannelLowPass, Hops: 2},
		{Kind: ChannelHighPass, Hops: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if emb.Rows != g.N || emb.Cols != 12 {
		t.Fatalf("shape = %dx%d, want %dx12", emb.Rows, emb.Cols, g.N)
	}
	// First channel is the identity — raw features.
	for i := 0; i < g.N; i++ {
		for j := 0; j < 4; j++ {
			if emb.At(i, j) != x.At(i, j) {
				t.Fatal("identity channel altered features")
			}
		}
	}
}

func TestMultiFilterValidation(t *testing.T) {
	rng := tensor.NewRand(8)
	g := graph.Path(4)
	op := symOp(t, g)
	x := tensor.RandNormal(4, 2, 1, rng)
	if _, err := MultiFilter(op, x, nil); err == nil {
		t.Error("no channels should error")
	}
	if _, err := MultiFilter(op, x, []ChannelSpec{{Kind: ChannelPPR, Hops: 2, Alpha: 0}}); err == nil {
		t.Error("bad alpha should error")
	}
}

func TestConcatColumns(t *testing.T) {
	a := tensor.FromSlice(2, 1, []float64{1, 2})
	b := tensor.FromSlice(2, 2, []float64{3, 4, 5, 6})
	c := ConcatColumns([]*tensor.Matrix{a, b})
	want := tensor.FromSlice(2, 3, []float64{1, 3, 4, 2, 5, 6})
	if !c.Equal(want, 0) {
		t.Errorf("concat = %v", c.Data)
	}
	if ConcatColumns[float64](nil).Rows != 0 {
		t.Error("empty concat should be empty")
	}
}

func TestBasisString(t *testing.T) {
	if Monomial.String() != "monomial" || Chebyshev.String() != "chebyshev" {
		t.Error("Basis.String wrong")
	}
	if ChannelLowPass.String() != "lowpass" || ChannelPPR.String() != "ppr" {
		t.Error("ChannelKind.String wrong")
	}
}

func BenchmarkFilterApply(b *testing.B) {
	rng := tensor.NewRand(1)
	g := graph.BarabasiAlbert(5000, 5, rng)
	op := graph.NewOperator(g, graph.NormSymmetric, false)
	x := tensor.RandNormal(g.N, 32, 1, rng)
	f := lowPass(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Apply(op, x)
	}
}

func TestAdjacencyPowerEqualsOperatorPower(t *testing.T) {
	// On a self-looped operator, adjacencyPower(K) must equal Â^K exactly.
	rng := tensor.NewRand(41)
	g := graph.ErdosRenyi(25, 60, rng)
	op := graph.NewOperator(g, graph.NormSymmetric, true)
	x := tensor.RandNormal(g.N, 3, 1, rng)
	for k := 1; k <= 4; k++ {
		viaFilter := adjacencyPower(k).Apply(op, x)
		viaPower := op.PowerApply(x, k)
		if !viaFilter.Equal(viaPower, 1e-10) {
			t.Errorf("K=%d: (1-λ)^K filter != Â^K", k)
		}
	}
}

func TestLaplacianPowerResponse(t *testing.T) {
	f := laplacianPower(3)
	if got := f.EvalScalar(0); got != 0 {
		t.Errorf("h(0) = %v, want 0", got)
	}
	if got := f.EvalScalar(2); math.Abs(got-8) > 1e-12 {
		t.Errorf("h(2) = %v, want 8", got)
	}
}

func TestAdjLapPowerComplementarity(t *testing.T) {
	// adjacencyPower(1) + laplacianPower(1) = all-pass.
	for _, l := range []float64{0, 0.5, 1.3, 2} {
		sum := adjacencyPower(1).EvalScalar(l) + laplacianPower(1).EvalScalar(l)
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("complementarity at λ=%v: %v", l, sum)
		}
	}
}

func TestMultiFilterNewChannels(t *testing.T) {
	rng := tensor.NewRand(43)
	g := graph.ErdosRenyi(15, 30, rng)
	op := graph.NewOperator(g, graph.NormSymmetric, true)
	x := tensor.RandNormal(g.N, 2, 1, rng)
	emb, err := MultiFilter(op, x, []ChannelSpec{
		{Kind: ChannelAdjPower, Hops: 2},
		{Kind: ChannelLapPower, Hops: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if emb.Rows != g.N || emb.Cols != 4 {
		t.Fatalf("shape %dx%d", emb.Rows, emb.Cols)
	}
	if ChannelAdjPower.String() != "adjpower" || ChannelLapPower.String() != "lappower" {
		t.Error("new channel names wrong")
	}
}

func TestSubspaceIterationMatchesDense(t *testing.T) {
	rng := tensor.NewRand(71)
	g := graph.ErdosRenyi(40, 120, rng)
	op := graph.NewOperator(g, graph.NormSymmetric, true)
	const k = 4
	vals, vecs, err := SubspaceIteration(op, k, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Dense reference: top-k eigenvalues of P.
	dense := op.Dense()
	dt := dense.T()
	dense.Add(dt)
	dense.Scale(0.5)
	refVals, _ := JacobiEigen(dense, 100)
	for j := 0; j < k; j++ {
		want := refVals[len(refVals)-1-j]
		if math.Abs(vals[j]-want) > 1e-5 {
			t.Errorf("eigenvalue %d: %v, want %v", j, vals[j], want)
		}
	}
	// Columns orthonormal and eigen-equation satisfied.
	for j := 0; j < k; j++ {
		col := make([]float64, g.N)
		for i := 0; i < g.N; i++ {
			col[i] = vecs.At(i, j)
		}
		if math.Abs(tensor.Norm2(col)-1) > 1e-8 {
			t.Fatalf("column %d not unit norm", j)
		}
		pv := op.ApplyVec(col)
		for i := range pv {
			if math.Abs(pv[i]-vals[j]*col[i]) > 1e-3 {
				t.Fatalf("eigen-equation violated for pair %d at row %d", j, i)
			}
		}
	}
}

func TestSubspaceIterationValidation(t *testing.T) {
	rng := tensor.NewRand(72)
	g := graph.Path(5)
	op := graph.NewOperator(g, graph.NormSymmetric, true)
	if _, _, err := SubspaceIteration(op, 0, 10, rng); err == nil {
		t.Error("k=0 should error")
	}
	if _, _, err := SubspaceIteration(op, 2, 0, rng); err == nil {
		t.Error("iters=0 should error")
	}
	if _, _, err := SubspaceIteration(op, 9, 10, rng); err == nil {
		t.Error("k>n should error")
	}
}
