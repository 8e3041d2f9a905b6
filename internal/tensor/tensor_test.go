package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) should panic")
		}
	}()
	New(-1, 2)
}

func TestFromSliceAndAt(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if got := m.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v, want 6", got)
	}
	m.Set(0, 1, 9)
	if got := m.At(0, 1); got != 9 {
		t.Errorf("after Set, At(0,1) = %v, want 9", got)
	}
}

func TestFromSlicePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length should panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v", m.At(2, 1))
	}
	empty := FromRows[float64](nil)
	if empty.Rows != 0 || empty.Cols != 0 {
		t.Error("FromRows(nil) should be empty")
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("T shape = %dx%d", mt.Rows, mt.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestTransposeBlockedMatchesNaive holds transposeInto's eight-row strips
// and remainder rows to the one-element-at-a-time loop, at both tiers.
func TestTransposeBlockedMatchesNaive(t *testing.T) {
	checkTransposeNaive[float64](t)
	checkTransposeNaive[float32](t)
}

func checkTransposeNaive[T Elem](t *testing.T) {
	rng := NewRand(3)
	for _, s := range [][2]int{{1, 9}, {9, 1}, {1, 64}, {64, 1}, {7, 13}, {8, 8}, {65, 129}} {
		m := RandNormalOf[T](s[0], s[1], 1, rng)
		want := NewOf[T](s[1], s[0])
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				want.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
			}
		}
		got := NewOf[T](s[1], s[0])
		got.Fill(T(math.NaN()))
		transposeInto(m, got)
		if !slices.Equal(got.Data, want.Data) {
			t.Fatalf("%T %dx%d: blocked transpose differs from the naive loop", *new(T), s[0], s[1])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(rows, cols uint8) bool {
		r, c := int(rows%8)+1, int(cols%8)+1
		rng := NewRand(uint64(rows)*251 + uint64(cols))
		m := RandNormal(r, c, 1, rng)
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{10, 20, 30, 40})

	sum := a.Clone()
	sum.Add(b)
	want := FromSlice(2, 2, []float64{11, 22, 33, 44})
	if !sum.Equal(want, 0) {
		t.Errorf("Add = %v", sum.Data)
	}

	diff := b.Clone()
	diff.Sub(a)
	want = FromSlice(2, 2, []float64{9, 18, 27, 36})
	if !diff.Equal(want, 0) {
		t.Errorf("Sub = %v", diff.Data)
	}

	sc := a.Clone()
	sc.Scale(2)
	want = FromSlice(2, 2, []float64{2, 4, 6, 8})
	if !sc.Equal(want, 0) {
		t.Errorf("Scale = %v", sc.Data)
	}

	axpy := a.Clone()
	axpy.AddScaled(0.5, b)
	want = FromSlice(2, 2, []float64{6, 12, 18, 24})
	if !axpy.Equal(want, 0) {
		t.Errorf("AddScaled = %v", axpy.Data)
	}
}

func TestAddRowVector(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	m.AddRowVector([]float64{10, 20, 30})
	want := FromSlice(2, 3, []float64{11, 22, 33, 14, 25, 36})
	if !m.Equal(want, 0) {
		t.Errorf("AddRowVector = %v", m.Data)
	}
}

func TestApplyAndReductions(t *testing.T) {
	m := FromSlice(2, 2, []float64{-1, 2, -3, 4})
	if got := m.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v", got)
	}
	if got := m.Sum(); got != 2 {
		t.Errorf("Sum = %v", got)
	}
	if got := m.FrobeniusNorm(); math.Abs(got-math.Sqrt(30)) > 1e-12 {
		t.Errorf("FrobeniusNorm = %v", got)
	}
	m.Apply(math.Abs)
	if m.At(0, 0) != 1 || m.At(1, 0) != 3 {
		t.Errorf("Apply(abs) = %v", m.Data)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want, 1e-12) {
		t.Errorf("MatMul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRand(7)
	a := RandNormal(5, 5, 1, rng)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if !MatMul(a, id).Equal(a, 1e-12) {
		t.Error("A*I != A")
	}
	if !MatMul(id, a).Equal(a, 1e-12) {
		t.Error("I*A != A")
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched dims should panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// TestMatMulTConsistency verifies MatMulT(a, b) == MatMul(a, b.T()).
func TestMatMulTConsistency(t *testing.T) {
	rng := NewRand(11)
	a := RandNormal(7, 5, 1, rng)
	b := RandNormal(9, 5, 1, rng)
	got := MatMulT(a, b)
	want := MatMul(a, b.T())
	if !got.Equal(want, 1e-10) {
		t.Error("MatMulT disagrees with explicit transpose")
	}
}

// TestTMatMulConsistency verifies TMatMul(a, b) == MatMul(a.T(), b).
func TestTMatMulConsistency(t *testing.T) {
	rng := NewRand(13)
	a := RandNormal(6, 4, 1, rng)
	b := RandNormal(6, 3, 1, rng)
	got := TMatMul(a, b)
	want := MatMul(a.T(), b)
	if !got.Equal(want, 1e-10) {
		t.Error("TMatMul disagrees with explicit transpose")
	}
}

// TestMatMulAssociativityProperty checks (AB)C == A(BC) on random inputs —
// the key algebraic property the propagation pipelines rely on.
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := NewRand(uint64(seed))
		n := int(seed%5) + 2
		a := RandNormal(n, n+1, 1, rng)
		b := RandNormal(n+1, n+2, 1, rng)
		c := RandNormal(n+2, n, 1, rng)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMatMulLargeParallel(t *testing.T) {
	// Exercise the parallel path (n > worker threshold) and compare against
	// a serial reference computed with the naive triple loop.
	rng := NewRand(17)
	const n = 200
	a := RandNormal(n, 33, 1, rng)
	b := RandNormal(33, 17, 1, rng)
	got := MatMul(a, b)
	want := New(n, 17)
	for i := 0; i < n; i++ {
		for j := 0; j < 17; j++ {
			var s float64
			for k := 0; k < 33; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if !got.Equal(want, 1e-9) {
		t.Error("parallel MatMul disagrees with serial reference")
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := MatVec(a, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("MatVec = %v", got)
	}
}

func TestSelectScatterRowsRoundTrip(t *testing.T) {
	rng := NewRand(23)
	m := RandNormal(6, 3, 1, rng)
	idx := []int{4, 0, 2}
	sel := m.SelectRows(idx)
	if sel.Rows != 3 || sel.Cols != 3 {
		t.Fatalf("SelectRows shape = %dx%d", sel.Rows, sel.Cols)
	}
	for i, r := range idx {
		for j := 0; j < 3; j++ {
			if sel.At(i, j) != m.At(r, j) {
				t.Fatalf("SelectRows mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Scatter back into zeros reproduces exactly the selected rows.
	back := New(6, 3)
	back.ScatterAddRows(idx, sel)
	for i := 0; i < 6; i++ {
		selected := false
		for _, r := range idx {
			if r == i {
				selected = true
			}
		}
		for j := 0; j < 3; j++ {
			want := 0.0
			if selected {
				want = m.At(i, j)
			}
			if back.At(i, j) != want {
				t.Fatalf("ScatterAddRows mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestScatterAddAccumulatesDuplicates(t *testing.T) {
	m := New(2, 1)
	src := FromSlice(3, 1, []float64{1, 2, 3})
	m.ScatterAddRows([]int{0, 0, 1}, src)
	if m.At(0, 0) != 3 || m.At(1, 0) != 3 {
		t.Errorf("duplicate scatter = %v", m.Data)
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Dot(x, x) != 25 {
		t.Error("Dot")
	}
	if Norm2(x) != 5 {
		t.Error("Norm2")
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy = %v", y)
	}
	n := Normalize(x)
	if n != 5 || math.Abs(Norm2(x)-1) > 1e-12 {
		t.Errorf("Normalize: n=%v ‖x‖=%v", n, Norm2(x))
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Error("Normalize of zero vector should return 0")
	}
}

func TestGlorotUniformRange(t *testing.T) {
	rng := NewRand(31)
	m := GlorotUniform(50, 30, rng)
	limit := math.Sqrt(6.0 / 80.0)
	for _, v := range m.Data {
		if v < -limit || v >= limit {
			t.Fatalf("Glorot value %v outside ±%v", v, limit)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a := RandNormal(4, 4, 1, NewRand(99))
	b := RandNormal(4, 4, 1, NewRand(99))
	if !a.Equal(b, 0) {
		t.Error("same seed must give identical matrices")
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(n uint8) bool {
		size := int(n%50) + 1
		p := Perm(size, NewRand(uint64(n)))
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkF64Dense times the three float64 products at the workloads'
// shapes, rows × k × n: MatMulInto is a (rows×k)·(k×n), MatMulTInto a
// (rows×k)·(n×k)ᵀ and TMatMulInto a (rows×k)ᵀ·(rows×n). The rows are a
// 20 000-node full-batch GCN, a GraphSAGE hidden layer over 3 072 sampled
// rows and a 512-row SIGN head; k and n are its 64-wide hidden and 5-class
// output layers. The 1- and 4-row products are the serving head's hidden
// layer after a cache miss, where ns/op is the figure to read (a per-call
// cost shows there first). It reports GFMA/s; compare worker counts with
// -cpu.
func BenchmarkF64Dense(b *testing.B) {
	rng := NewRand(1)
	for _, s := range []struct{ rows, k, n int }{
		{20000, 64, 64}, {20000, 64, 5}, {20000, 5, 64}, {3072, 64, 64}, {512, 256, 64}, {512, 64, 5},
		{1, 256, 64}, {4, 256, 64},
	} {
		x, w, wt, g := RandNormal(s.rows, s.k, 1, rng), RandNormal(s.k, s.n, 1, rng), RandNormal(s.n, s.k, 1, rng), RandNormal(s.rows, s.n, 1, rng)
		y, wg := New(s.rows, s.n), New(s.k, s.n)
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"MatMulInto", func() { MatMulInto(x, w, y) }},
			{"MatMulTInto", func() { MatMulTInto(x, wt, y) }},
			{"TMatMulInto", func() { TMatMulInto(x, g, wg) }},
		} {
			b.Run(fmt.Sprintf("%s_%dx%dx%d", c.name, s.rows, s.k, s.n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.run()
				}
				b.ReportMetric(float64(s.rows*s.k*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFMA/s")
			})
		}
	}
}

func TestCopyFillShape(t *testing.T) {
	dst := New(2, 2)
	dst.Fill(7)
	for _, v := range dst.Data {
		if v != 7 {
			t.Fatal("Fill failed")
		}
	}
	dst.Zero()
	if dst.Sum() != 0 {
		t.Error("Zero failed")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestRowIsView(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	m.Row(1)[0] = 42
	if m.At(1, 0) != 42 {
		t.Error("Row must alias storage")
	}
}

func TestRandUniformRange(t *testing.T) {
	rng := NewRand(5)
	m := randUniformOf[float64](20, 20, -2, 3, rng)
	for _, v := range m.Data {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform value %v outside [-2,3)", v)
		}
	}
}
