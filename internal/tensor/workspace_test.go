package tensor

import (
	"math"
	"testing"
)

func TestWorkspaceGetPutReuse(t *testing.T) {
	ws := &Workspace{}
	a := ws.Get(4, 3)
	if a.Rows != 4 || a.Cols != 3 || len(a.Data) != 12 {
		t.Fatalf("Get(4,3) gave %dx%d len %d", a.Rows, a.Cols, len(a.Data))
	}
	for i := range a.Data {
		a.Data[i] = 1
	}
	ws.Put(a)
	b := ws.GetZero(4, 3)
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("GetZero returned dirty data at %d: %v", i, v)
		}
	}
	ws.Put(b)
	// Different shape draws from a different pool and must still be sized
	// correctly even when the flat length matches an earlier buffer.
	c := ws.Get(3, 4)
	if c.Rows != 3 || c.Cols != 4 {
		t.Fatalf("Get(3,4) gave %dx%d", c.Rows, c.Cols)
	}
}

func TestWorkspacePutNilAndEmpty(t *testing.T) {
	ws := &Workspace{}
	ws.Put(nil)       // must not panic
	ws.Put(New(0, 5)) // empty matrices are not pooled
	ws.Put(New(5, 0)) // must not panic
}

func TestBufNextRecycles(t *testing.T) {
	var b Buf
	m1 := b.Next(2, 2)
	m1.Data[0] = 42
	// Next returns the previous buffer to the pool before acquiring; on a
	// single goroutine the same allocation comes straight back.
	// Under the race detector sync.Pool deliberately drops a fraction of
	// Puts, so allow a few rounds before declaring recycling broken.
	recycled := false
	for i := 0; i < 50 && !recycled; i++ {
		m2 := b.Next(2, 2)
		recycled = m2 == m1
		m1 = m2
	}
	if !recycled {
		t.Fatal("Buf.Next should recycle the previous same-shape buffer")
	}
	z := b.NextZero(2, 2)
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("NextZero dirty at %d: %v", i, v)
		}
	}
	b.Release()
	if b.cur != nil {
		t.Fatal("Release should clear the held buffer")
	}
	b.Release() // double release must be a no-op
}

func TestBufZeroValueUsesDefault(t *testing.T) {
	var b Buf
	m := b.Next(3, 3)
	if m.Rows != 3 || m.Cols != 3 {
		t.Fatalf("zero-value Buf Next gave %dx%d", m.Rows, m.Cols)
	}
	b.Release()
}

func TestOverlaps(t *testing.T) {
	backing := make([]float64, 10)
	cases := []struct {
		name string
		a, b []float64
		want bool
	}{
		{"identical", backing[0:5], backing[0:5], true},
		{"partial", backing[0:6], backing[3:9], true},
		{"adjacent", backing[0:5], backing[5:10], false},
		{"disjoint arrays", backing[0:5], make([]float64, 5), false},
		{"empty a", backing[0:0], backing[0:5], false},
		{"empty b", backing[0:5], backing[2:2], false},
		{"contained", backing[0:10], backing[4:6], true},
	}
	for _, c := range cases {
		if got := Overlaps(c.a, c.b); got != c.want {
			t.Errorf("%s: Overlaps = %v, want %v", c.name, got, c.want)
		}
		if got := Overlaps(c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): Overlaps = %v, want %v", c.name, got, c.want)
		}
	}
}

// intoKernelsMatchAllocating verifies every *Into kernel against its
// allocating wrapper on random inputs, with dst pre-filled with garbage to
// prove full overwrite.
func TestIntoKernelsMatchAllocating(t *testing.T) {
	rng := NewRand(5)
	a := RandNormal(17, 9, 1, rng)
	bm := RandNormal(9, 13, 1, rng)
	check := func(name string, want, got *Matrix) {
		t.Helper()
		if want.Rows != got.Rows || want.Cols != got.Cols {
			t.Fatalf("%s: shape %dx%d vs %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if math.Abs(want.Data[i]-got.Data[i]) > 1e-12 {
				t.Fatalf("%s: mismatch at %d: %v vs %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}
	garbage := func(r, c int) *Matrix {
		m := New(r, c)
		for i := range m.Data {
			m.Data[i] = math.NaN()
		}
		return m
	}

	dst := garbage(17, 13)
	MatMulInto(a, bm, dst)
	check("MatMulInto", MatMul(a, bm), dst)

	g := RandNormal(17, 13, 1, rng)
	dst = garbage(17, 9)
	MatMulTInto(g, bm, dst)
	check("MatMulTInto", MatMulT(g, bm), dst)

	dst = garbage(9, 13)
	TMatMulInto(a, g, dst)
	check("TMatMulInto", TMatMul(a, g), dst)

	x := make([]float64, 9)
	for i := range x {
		x[i] = float64(i) - 4
	}
	out := make([]float64, 17)
	for i := range out {
		out[i] = math.NaN()
	}
	matVecInto(a, x, out)
	want := MatVec(a, x)
	for i := range want {
		if math.Abs(want[i]-out[i]) > 1e-12 {
			t.Fatalf("matVecInto mismatch at %d", i)
		}
	}

	idx := []int{3, 0, 16, 7}
	sdst := garbage(len(idx), 9)
	a.SelectRowsInto(idx, sdst)
	check("SelectRowsInto", a.SelectRows(idx), sdst)
}

func TestIntoKernelsRejectAliasing(t *testing.T) {
	a := New(4, 4)
	b := New(4, 4)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: aliased dst should panic", name)
			}
		}()
		f()
	}
	mustPanic("MatMulInto dst=a", func() { MatMulInto(a, b, a) })
	mustPanic("MatMulInto dst=b", func() { MatMulInto(a, b, b) })
	mustPanic("MatMulTInto dst=a", func() { MatMulTInto(a, b, a) })
	mustPanic("TMatMulInto dst=b", func() { TMatMulInto(a, b, b) })
	mustPanic("SelectRowsInto dst aliases src", func() {
		view := FromSlice(2, 4, a.Data[:8])
		a.SelectRowsInto([]int{0, 1}, view)
	})
	mustPanic("matVecInto dst=x", func() {
		x := make([]float64, 4)
		matVecInto(a, x, x)
	})
	// Overlapping (not identical) views: dst == src is a no-op copy.
	backing := make([]float64, 10)
	src, dst := FromSlice(2, 4, backing[:8]), FromSlice(2, 4, backing[2:])
	mustPanic("WidenInto dst overlaps src", func() { WidenInto(src, dst) })
}

func TestIntoKernelsRejectShapeMismatch(t *testing.T) {
	a := New(4, 3)
	b := New(3, 5)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: bad dst shape should panic", name)
			}
		}()
		f()
	}
	mustPanic("MatMulInto wrong dst", func() { MatMulInto(a, b, New(4, 4)) })
	mustPanic("matVecInto wrong dst", func() { matVecInto(a, make([]float64, 3), make([]float64, 3)) })
	mustPanic("SelectRowsInto wrong dst", func() { a.SelectRowsInto([]int{0}, New(2, 3)) })
	// Each dst below is larger than the result, so only the shape guard —
	// not an index out of range — can reject it.
	mustPanic("MatMulTInto wrong dst", func() { MatMulTInto(a, New(5, 3), New(5, 5)) })
	mustPanic("TMatMulInto wrong dst", func() { TMatMulInto(a, New(4, 5), New(4, 5)) })
	mustPanic("WidenInto wrong dst", func() { WidenInto(NewOf[float32](2, 3), New(3, 3)) })
}
