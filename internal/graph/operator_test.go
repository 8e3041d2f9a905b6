package graph

import (
	"math"
	"testing"
	"testing/quick"

	"scalegnn/internal/tensor"
)

func TestOperatorRowStochastic(t *testing.T) {
	rng := tensor.NewRand(3)
	g := ErdosRenyi(50, 120, rng)
	op := NewOperator(g, NormRandomWalk, true)
	for u, s := range op.RowSums() {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v, want 1", u, s)
		}
	}
}

func TestOperatorSymmetricMatchesDense(t *testing.T) {
	g, err := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	op := NewOperator(g, NormSymmetric, true)
	d := op.Dense()
	// Symmetric normalization of an undirected graph must be symmetric.
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if math.Abs(d.At(i, j)-d.At(j, i)) > 1e-12 {
				t.Fatalf("dense operator asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// GCN operator on node 3 (degree 2 +1 loop) to node 0 (degree 3 +1 loop):
	// 1/sqrt(3*4).
	want := 1 / math.Sqrt(12)
	if math.Abs(d.At(3, 0)-want) > 1e-12 {
		t.Errorf("Â[3,0] = %v, want %v", d.At(3, 0), want)
	}
}

func TestOperatorApplyMatchesDense(t *testing.T) {
	f := func(seed uint16) bool {
		rng := tensor.NewRand(uint64(seed) + 11)
		g := ErdosRenyi(20, 40, rng)
		for _, norm := range []Normalization{NormNone, NormSymmetric, NormRandomWalk, NormColumn} {
			for _, loops := range []bool{false, true} {
				op := NewOperator(g, norm, loops)
				x := tensor.RandNormal(g.N, 3, 1, rng)
				fast := op.Apply(x)
				slow := tensor.MatMul(op.Dense(), x)
				if !fast.Equal(slow, 1e-10) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestOperatorApplyVecMatchesApply(t *testing.T) {
	rng := tensor.NewRand(19)
	g := BarabasiAlbert(60, 2, rng)
	op := NewOperator(g, NormSymmetric, true)
	x := make([]float64, g.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	xm := tensor.FromSlice(g.N, 1, append([]float64(nil), x...))
	got := op.ApplyVec(x)
	want := op.Apply(xm)
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("ApplyVec[%d] = %v, Apply = %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestPowerApply(t *testing.T) {
	rng := tensor.NewRand(23)
	g := ErdosRenyi(30, 60, rng)
	op := NewOperator(g, NormRandomWalk, true)
	x := tensor.RandNormal(g.N, 2, 1, rng)
	p2 := op.PowerApply(x, 2)
	want := op.Apply(op.Apply(x))
	if !p2.Equal(want, 1e-12) {
		t.Error("PowerApply(2) != Apply∘Apply")
	}
	p0 := op.PowerApply(x, 0)
	if !p0.Equal(x, 0) {
		t.Error("PowerApply(0) should be identity")
	}
}

func TestOperatorPreservesConstantRW(t *testing.T) {
	// Random-walk operator with self-loops preserves the all-ones vector on
	// any graph without isolated nodes.
	rng := tensor.NewRand(29)
	g := BarabasiAlbert(100, 3, rng)
	op := NewOperator(g, NormRandomWalk, true)
	ones := make([]float64, g.N)
	for i := range ones {
		ones[i] = 1
	}
	out := op.ApplyVec(ones)
	for i, v := range out {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("node %d: P·1 = %v", i, v)
		}
	}
}

func TestOperatorSpectralRadiusSym(t *testing.T) {
	// The symmetric-normalized adjacency with self-loops has eigenvalues in
	// [-1, 1]; repeated application of it must not blow up.
	rng := tensor.NewRand(31)
	g := ErdosRenyi(80, 200, rng)
	op := NewOperator(g, NormSymmetric, true)
	x := tensor.RandNormal(g.N, 1, 1, rng)
	norm0 := x.FrobeniusNorm()
	y := op.PowerApply(x, 20)
	if y.FrobeniusNorm() > norm0*1.0001 {
		t.Errorf("‖Â^20 x‖ = %v > ‖x‖ = %v", y.FrobeniusNorm(), norm0)
	}
}

func TestLaplacianAnnihilatesConstant(t *testing.T) {
	// L = I - D^{-1}A kills constant vectors (rw normalization, no loops,
	// no isolated nodes).
	rng := tensor.NewRand(37)
	g := BarabasiAlbert(50, 2, rng)
	op := NewOperator(g, NormRandomWalk, false)
	ones := tensor.New(g.N, 1)
	ones.Fill(1)
	lx := op.Laplacian(ones)
	if lx.MaxAbs() > 1e-12 {
		t.Errorf("L·1 max abs = %v, want 0", lx.MaxAbs())
	}
}

func TestIsolatedNodeZeroRows(t *testing.T) {
	// Node 2 is isolated; normalized operators must leave its row zero
	// (without self-loops) rather than dividing by zero.
	g, err := FromEdges(3, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, norm := range []Normalization{NormSymmetric, NormRandomWalk, NormColumn} {
		op := NewOperator(g, norm, false)
		x := tensor.New(3, 1)
		x.Fill(1)
		y := op.Apply(x)
		if y.At(2, 0) != 0 {
			t.Errorf("norm %v: isolated row = %v", norm, y.At(2, 0))
		}
		if math.IsNaN(y.At(0, 0)) || math.IsInf(y.At(0, 0), 0) {
			t.Errorf("norm %v: produced NaN/Inf", norm)
		}
	}
}

func TestNNZ(t *testing.T) {
	g := triangle(t)
	opNoLoops := NewOperator(g, NormSymmetric, false)
	if opNoLoops.NNZ() != 6 {
		t.Errorf("NNZ = %d, want 6", opNoLoops.NNZ())
	}
	opLoops := NewOperator(g, NormSymmetric, true)
	if opLoops.NNZ() != 9 {
		t.Errorf("NNZ with loops = %d, want 9", opLoops.NNZ())
	}
}

func TestNormalizationString(t *testing.T) {
	cases := map[Normalization]string{
		NormNone: "none", NormSymmetric: "sym", NormRandomWalk: "rw", NormColumn: "col",
	}
	for n, want := range cases {
		if n.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(n), n.String(), want)
		}
	}
}

func BenchmarkOperatorApply(b *testing.B) {
	rng := tensor.NewRand(1)
	g := BarabasiAlbert(10000, 8, rng)
	op := NewOperator(g, NormSymmetric, true)
	x := tensor.RandNormal(g.N, 64, 1, rng)
	dst := tensor.New(g.N, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.ApplyInto(x, dst)
	}
}

// mustPanic runs each named case and fails the ones that return normally.
func mustPanic(t *testing.T, cases map[string]func()) {
	t.Helper()
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestApplyIntoRejectsAliasing(t *testing.T) {
	g := triangle(t)
	op := NewOperator(g, NormSymmetric, true)
	x := tensor.New(3, 2)
	v := make([]float64, 3)
	mustPanic(t, map[string]func(){
		"ApplyInto(x, x)":          func() { op.ApplyInto(x, x) },
		"ApplyRowsInto(x, x, {0})": func() { op.ApplyRowsInto(x, x, []int32{0}) },
		"ApplyVecInto(v, v)":       func() { op.ApplyVecInto(v, v) },
	})
}

// TestApplyIntoRejectsShapeMismatch: each dst is larger than P*X, so only
// the shape guard — not an index out of range — can reject it.
func TestApplyIntoRejectsShapeMismatch(t *testing.T) {
	g := triangle(t)
	op := NewOperator(g, NormSymmetric, true)
	x := tensor.New(3, 2)
	mustPanic(t, map[string]func(){
		"ApplyInto wrong dst":     func() { op.ApplyInto(x, tensor.New(4, 2)) },
		"ApplyRowsInto wrong dst": func() { op.ApplyRowsInto(x, tensor.New(4, 2), []int32{0}) },
		"ApplyVecInto wrong dst":  func() { op.ApplyVecInto(make([]float64, 3), make([]float64, 4)) },
	})
}

func TestApplyIntoRejectsOverlappingViews(t *testing.T) {
	// dst must be rejected whenever any part of its data range overlaps x,
	// not only when the two share a first element: FromSlice views over one
	// backing array are how such partial overlap arises in practice.
	g := triangle(t)
	op := NewOperator(g, NormSymmetric, true)
	backing := make([]float64, 3*2+3) // room for two shifted 3x2 views
	x := tensor.FromSlice(3, 2, backing[:6])
	dst := tensor.FromSlice(3, 2, backing[3:9])
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyInto with partially overlapping dst should panic")
		}
	}()
	op.ApplyInto(x, dst)
}

func TestApplyIntoDisjointViewsOK(t *testing.T) {
	// Disjoint views over one backing array are legal: the overlap guard
	// must compare data ranges, not backing arrays.
	g := triangle(t)
	op := NewOperator(g, NormSymmetric, true)
	backing := make([]float64, 12)
	x := tensor.FromSlice(3, 2, backing[:6])
	for i := range backing[:6] {
		backing[i] = float64(i + 1)
	}
	dst := tensor.FromSlice(3, 2, backing[6:])
	op.ApplyInto(x, dst)
	want := op.Apply(x)
	for i := range want.Data {
		if math.Abs(want.Data[i]-dst.Data[i]) > 1e-12 {
			t.Fatalf("disjoint-view ApplyInto mismatch at %d: %v vs %v", i, dst.Data[i], want.Data[i])
		}
	}
}
