package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"scalegnn/internal/par"
)

// The float64 vector kernels promise the bits of the scalar loops. These
// tests hold them to it on the values where "nearly the same arithmetic"
// shows: signed zeros, infinities, NaN, denormals, zero coefficients (the
// scalar loops skip the term; adding 0*x instead would differ on -0, Inf
// and NaN), every tail length and unaligned sub-slices.

var f64Specials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -1.0 / 3,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, // denormals
	2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
}

// sameBits is bit equality, except that any NaN equals any NaN: which
// payload survives when both operands of an add or multiply are NaN depends
// on operand order, which neither Go nor the kernels promise.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func requireSameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), scalar %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// requireVectorKernels skips when the machine has no vector path to compare.
func requireVectorKernels(t testing.TB) {
	t.Helper()
	if !simdOn {
		t.Skip("vector kernels off (no AVX2, or SCALEGNN_NOSIMD set)")
	}
}

// gateSettings lists the gate values this machine can run: off, and on
// when the vector kernels are available. Callers restore simdOn.
func gateSettings() []bool {
	if simdOn {
		return []bool{false, true}
	}
	return []bool{false}
}

// scalarOnly runs f with the gate off.
func scalarOnly(f func()) {
	defer func(on bool) { simdOn = on }(simdOn)
	simdOn = false
	f()
}

// mixedVals returns n values, about a third of them specials.
func mixedVals(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.IntN(3) == 0 {
			v[i] = f64Specials[rng.IntN(len(f64Specials))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// accumRowsRef is f64AccumRows written the naive way, one column at a time:
// one accumulator, terms in k order, product rounded before the add.
func accumRowsRef(coef []float64, idx []int32, x []float64, stride int, acc []float64) {
	for j := range acc {
		s := acc[j]
		for k, c := range coef {
			if c == 0 {
				continue
			}
			s += float64(c * x[int(idx[k])*stride+j]) // the conversion forbids fusing
		}
		acc[j] = s
	}
}

func TestF64AccumRowsBitsMatchScalar(t *testing.T) {
	requireVectorKernels(t)
	rng := rand.New(rand.NewPCG(47, 53))
	const nrows = 7
	for n := 0; n <= 67; n++ {
		for _, terms := range []int{0, 1, 2, 5, 33} {
			for _, off := range []int{0, 1} {
				stride := n + rng.IntN(3)
				x := mixedVals(rng, nrows*stride+off)[off:]
				coef := mixedVals(rng, terms)
				idx := make([]int32, terms)
				for k := range idx {
					idx[k] = int32(rng.IntN(nrows))
				}
				acc := mixedVals(rng, n+off)[off:]
				ref := append([]float64(nil), acc...)
				accumRowsRef(coef, idx, x, stride, ref)
				scalar := append([]float64(nil), acc...)
				scalarOnly(func() { f64AccumRows(coef, idx, x, nrows, stride, scalar) })
				f64AccumRows(coef, idx, x, nrows, stride, acc)
				requireSameBits(t, "f64AccumRows scalar path vs naive loop", scalar, ref)
				requireSameBits(t, "f64AccumRows", acc, scalar)
			}
		}
	}
}

// TestF64AccumRowsRejectsBadRows: the kernel reads x through idx without
// per-element bounds checks, so a bad index must stop it on both paths.
func TestF64AccumRowsRejectsBadRows(t *testing.T) {
	x := make([]float64, 3*40)
	acc := make([]float64, 40)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	defer func(was bool) { simdOn = was }(simdOn)
	for _, on := range []bool{simdOn, false} {
		simdOn = on
		mustPanic("row == nrows", func() { f64AccumRows([]float64{1}, []int32{3}, x, 3, 40, acc) })
		mustPanic("negative row", func() { f64AccumRows([]float64{1}, []int32{-1}, x, 3, 40, acc) })
		mustPanic("x too short", func() { f64AccumRows([]float64{1}, []int32{0}, x, 4, 40, acc) })
		mustPanic("idx shorter than coef", func() { f64AccumRows([]float64{1, 2}, []int32{0}, x, 3, 40, acc) })
		// A zero coefficient skips its term before the index is looked at,
		// on both paths.
		f64AccumRows([]float64{0}, []int32{99}, x, 3, 40, acc)
	}
}

// TestF64AccumRowsAllocsNothing: the row kernel runs once per destination
// row of every float64 SpMM, so it may not allocate, gate on or off. The
// shape is one GCN destination row: 25 arcs over 64 columns of a 512-row x.
func TestF64AccumRowsAllocsNothing(t *testing.T) {
	const terms, rows, cols = 25, 512, 64
	rng := rand.New(rand.NewPCG(42, 43))
	x := mixedVals(rng, rows*cols)
	coef := mixedVals(rng, terms)
	idx := make([]int32, terms)
	for k := range idx {
		idx[k] = int32(rng.IntN(rows))
	}
	acc := make([]float64, cols)
	defer func(was bool) { simdOn = was }(simdOn)
	for _, on := range gateSettings() {
		simdOn = on
		if got := testing.AllocsPerRun(50, func() { f64AccumRows(coef, idx, x, rows, cols, acc) }); got != 0 {
			t.Errorf("gate on=%v: %v allocs per call, want 0", on, got)
		}
	}
}

// mixedMat returns an r×c matrix whose entries are one of f64Specials with
// probability special, else zero with probability zero, else normal draws.
// A sum over hundreds of terms with specials among them ends in NaN or Inf,
// where bit comparison proves little, so long sums keep special small.
func mixedMat(rng *rand.Rand, r, c int, special, zero float64) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		switch p := rng.Float64(); {
		case p < special:
			m.Data[i] = f64Specials[rng.IntN(len(f64Specials))]
		case p < special+zero:
			m.Data[i] = 0
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// requireMostlyFinite fails when more than a quarter of vals are NaN or
// Inf: a comparison of such values would pass whatever the sum order.
func requireMostlyFinite(t testing.TB, what string, vals []float64) {
	t.Helper()
	bad := 0
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad++
		}
	}
	if 4*bad > len(vals) {
		t.Fatalf("%s: %d of %d reference values are NaN or Inf", what, bad, len(vals))
	}
}

// TestF64DenseKernelsGateOnOff runs the float64 products and AddScaled
// with the gate on and off. Shapes cover the 32/4/1 column
// blocks, a k range longer than one mmBlockK tile, rows full of zeros (ReLU
// outputs) and specials, and the two weight-gradient shapes of a 64-wide
// hidden layer: TMatMul of 700×64 and 600×64 activations against 64- and
// 5-wide gradients, k over three mmBlockK tiles, specials rare enough that
// most sums stay finite.
func TestF64DenseKernelsGateOnOff(t *testing.T) {
	requireVectorKernels(t)
	rng := rand.New(rand.NewPCG(59, 61))
	const dense, sparse = 1.0 / 3, 1.0 / 4096
	for _, c := range []struct {
		m, k, n int
		special float64
	}{{3, 5, 2, dense}, {70, 64, 5, dense}, {9, 300, 64, dense}, {130, 33, 67, dense}, {1, 1, 1, dense}, {700, 64, 64, sparse}, {600, 64, 5, sparse}} {
		a, b, w := mixedMat(rng, c.m, c.k, c.special, 0.4), mixedMat(rng, c.k, c.n, c.special, 0), mixedMat(rng, c.m, c.n, c.special, 0.2)
		bt := b.T()
		var mmS, mtS, tmS, addS *Matrix
		scalarOnly(func() {
			mmS, mtS, tmS = MatMul(a, b), MatMulT(a, bt), TMatMul(a, w)
			addS = w.Clone()
			addS.AddScaled(-1.5, w)
		})
		if c.special == sparse {
			requireMostlyFinite(t, "TMatMul", tmS.Data)
		}
		add := w.Clone()
		add.AddScaled(-1.5, w)
		requireSameBits(t, "MatMul", MatMul(a, b).Data, mmS.Data)
		requireSameBits(t, "MatMulT", MatMulT(a, bt).Data, mtS.Data)
		requireSameBits(t, "TMatMul", TMatMul(a, w).Data, tmS.Data)
		requireSameBits(t, "AddScaled", add.Data, addS.Data)
	}
}

// TestF64ProductsBitsIndependentOfWorkers holds the three float64 products
// to one contract, a naive loop that skips a zero a-term: a·b as
// MatMulInto(a, b), MatMulTInto(a, bᵀ) and TMatMulInto(aᵀ, b), at 1–4
// workers, gate on and off, into a NaN-filled dst. Every seventh column
// of a is ±0 and the same row of b holds ±Inf, NaN, −0 and a denormal:
// the skip, not 0·b, decides those terms. The other terms are finite, so
// a change of sum order shows in the bits. Both MatMulInto and
// TMatMulInto split their output rows among every worker. Axpy and
// AddScaled of b into b shifted by one element follow the same rule: a ±0
// a leaves y as it was, where adding 0·b would turn ±Inf into NaN and −0
// into +0. At float32 they never skip.
func TestF64ProductsBitsIndependentOfWorkers(t *testing.T) {
	rng := rand.New(rand.NewPCG(67, 71))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), math.SmallestNonzeroFloat64}
	defer func(on bool) { simdOn = on }(simdOn)
	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	widen := func(v *Mat[float32]) []float64 {
		w := New(v.Rows, v.Cols)
		WidenInto(v, w)
		return w.Data
	}
	const m, k = 260, 600
	for _, n := range []int{5, 33, 67} {
		a, b := mixedMat(rng, m, k, 0, 0.3), mixedMat(rng, k, n, 0, 0)
		for kk := 0; kk < k; kk += 7 {
			for i := 0; i < m; i++ {
				a.Set(i, kk, math.Copysign(0, float64(i%2*2-1)))
			}
			for j, brow := 0, b.Row(kk); j < n; j++ {
				brow[j] = specials[(kk+j)%len(specials)]
			}
		}
		want := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for kk := 0; kk < k; kk++ {
					if av := a.At(i, kk); av != 0 {
						s += float64(av * b.At(kk, j)) // the conversion forbids fusing
					}
				}
				want.Set(i, j, s)
			}
		}
		requireMostlyFinite(t, "naive a·b", want.Data)
		at, bt := a.T(), b.T()
		products := []struct {
			name string
			run  func(dst *Matrix)
		}{
			{"MatMulInto", func(dst *Matrix) { MatMulInto(a, b, dst) }},
			{"MatMulTInto", func(dst *Matrix) { MatMulTInto(a, bt, dst) }},
			{"TMatMulInto", func(dst *Matrix) { TMatMulInto(at, b, dst) }},
		}
		y0 := FromSlice(k, n, append(b.Data[1:len(b.Data):len(b.Data)], b.Data[0]))
		b32, y32 := FromFloat64[float32](b), FromFloat64[float32](y0)
		for _, on := range gateSettings() {
			simdOn = on
			for _, s := range []float64{0, math.Copysign(0, -1), -1.5} {
				wantY := y0.Clone()
				if s != 0 {
					for i, v := range b.Data {
						wantY.Data[i] += float64(s * v) // the conversion forbids fusing
					}
				}
				what := fmt.Sprintf("a=%v n=%d gate=%v", s, n, on)
				y, ys := append([]float64(nil), y0.Data...), y0.Clone()
				Axpy(s, b.Data, y)
				ys.AddScaled(s, b)
				requireSameBits(t, "Axpy "+what, y, wantY.Data)
				requireSameBits(t, "AddScaled "+what, ys.Data, wantY.Data)
				if s != 0 {
					continue // a fused float32 product rounds differently
				}
				// 0·b needs no rounding, so fused or not it is y + 0·b.
				wantY32 := y32.Clone()
				for i, v := range b32.Data {
					wantY32.Data[i] += float32(s) * v
				}
				y32s, ys32 := y32.Clone(), y32.Clone()
				Axpy(float32(s), b32.Data, y32s.Data)
				ys32.AddScaled(float32(s), b32)
				requireSameBits(t, "Axpy float32 "+what, widen(y32s), widen(wantY32))
				requireSameBits(t, "AddScaled float32 "+what, widen(ys32), widen(wantY32))
			}
			for w := 1; w <= 4; w++ {
				par.SetMaxWorkers(w)
				for _, p := range products {
					got := New(m, n)
					got.Fill(math.NaN()) // the kernel must overwrite, not add
					p.run(got)
					requireSameBits(t, fmt.Sprintf("%s n=%d gate=%v workers=%d", p.name, n, on, w), got.Data, want.Data)
				}
			}
		}
	}
}

// skipLoop is the float64 products' contract written out: element (i, j)
// of a·b is one accumulator from +0 over k in increasing order, each
// product rounded before its add, a zero a-term skipped.
func skipLoop(a, b *Matrix) *Matrix {
	want := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for kk := 0; kk < a.Cols; kk++ {
				if av := a.At(i, kk); av != 0 {
					s += float64(av * b.At(kk, j)) // the conversion forbids fusing
				}
			}
			want.Set(i, j, s)
		}
	}
	return want
}

// TestF64ProductsRemainderShapes holds the float64 products to skipLoop on
// the shapes the 4×8 block kernel does not tile: m mod 4 of 1, 2 and 3
// (leftover rows run f64AccumRows), n mod 8 of 1 to 7 (the last panel
// runs packed, alone or after full ones) and k of 0 (all +0), 1, 5 and
// 257 (three k-tiles), gate on and off, at 1–3 workers, into a dst that
// holds NaN or stale finite values. In the last case the only ±Inf of b
// lies in the first of two k-tiles beside a zero a-term: the kernel's
// NaN from 0·Inf must survive into the last tile's flag, so the rows are
// rerun and come out finite.
func TestF64ProductsRemainderShapes(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 79))
	defer func(on bool) { simdOn = on }(simdOn)
	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	type product struct{ a, b *Matrix }
	var cases []product
	for _, m := range []int{129, 6, 67} {
		for r := 1; r <= 7; r++ {
			for _, k := range []int{0, 1, 5, 257} {
				cases = append(cases, product{mixedMat(rng, m, k, 0, 0.3), mixedMat(rng, k, r%2*8+r, 0, 0)})
			}
		}
	}
	k := gemmTailFloats/8 + 5 // two k-tiles when the last panel is packed
	a, b := mixedMat(rng, 70, k, 0, 0.3), mixedMat(rng, k, 13, 0, 0)
	for i := 0; i < a.Rows; i++ {
		a.Set(i, 3, math.Copysign(0, float64(i%2*2-1)))
	}
	b.Set(3, 2, math.Inf(1))
	b.Set(3, 11, math.Inf(-1))
	cases = append(cases, product{a, b})
	for _, c := range cases {
		want := skipLoop(c.a, c.b)
		requireMostlyFinite(t, "skipLoop", want.Data)
		at := c.a.T()
		for _, on := range gateSettings() {
			simdOn = on
			for w := 1; w <= 3; w++ {
				par.SetMaxWorkers(w)
				for _, fill := range []float64{math.NaN(), 1} {
					for p, run := range []func(dst *Matrix){
						func(dst *Matrix) { MatMulInto(c.a, c.b, dst) },
						func(dst *Matrix) { TMatMulInto(at, c.b, dst) },
					} {
						got := New(c.a.Rows, c.b.Cols)
						got.Fill(fill)
						run(got)
						requireSameBits(t, fmt.Sprintf("%s %dx%dx%d gate=%v workers=%d fill=%v", productNames[2*p], c.a.Rows, c.a.Cols, c.b.Cols, on, w, fill),
							got.Data, want.Data)
					}
				}
			}
		}
	}
}

// FuzzF64KernelsMatchScalar feeds the float64 assembly kernels arbitrary
// bit patterns, lengths and alignments and requires the plain-Go bodies'
// bits: f64AccumRows as a row of the SpMM and as Axpy, and f64Gemm4x8
// (value and NaN flag) on a 4-row block of k 0–40 against 1–5 panels,
// with a (ka = 1) or aᵀ (lda = 1) in place and fresh on or off. The
// products MatMulInto and TMatMulInto of 1–9 rows, 1–40 columns and the
// same k must give skipLoop's bits at both gate settings.
// vals is read as little-endian float64s and reused cyclically; width
// picks the columns, the layout and fresh, off the rows and the alignment.
func FuzzF64KernelsMatchScalar(f *testing.F) {
	le := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(le(1, 2, 3), uint8(5), uint8(3), uint8(0))
	f.Add(le(f64Specials...), uint8(67), uint8(9), uint8(1))
	f.Add(le(0, math.Copysign(0, -1), math.Inf(1)), uint8(33), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, vals []byte, width, terms, off uint8) {
		requireVectorKernels(t)
		if len(vals) < 8 {
			return
		}
		n, kn, o := int(width)%80, int(terms)%40, int(off)%4
		next := 0
		take := func(m int) []float64 {
			v := make([]float64, m)
			for i := range v {
				p := (next % (len(vals) / 8)) * 8
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[p:]))
				next++
			}
			return v
		}
		const nrows = 5
		x := take(nrows*n + o)[o:]
		coef := take(kn)
		idx := make([]int32, kn)
		for k := range idx {
			idx[k] = int32((next + k*7) % nrows)
		}
		acc := take(n + o)[o:]
		a := take(1)[0]

		wantAcc := append([]float64(nil), acc...)
		wantY := append([]float64(nil), acc...)
		scalarOnly(func() {
			f64AccumRows(coef, idx, x, nrows, n, wantAcc)
			Axpy(a, x[:n], wantY)
		})
		y := append([]float64(nil), acc...)
		f64AccumRows(coef, idx, x, nrows, n, acc)
		Axpy(a, x[:n], y)
		requireSameBits(t, "f64AccumRows", acc, wantAcc)
		requireSameBits(t, "Axpy", y, wantY)

		k, m, cols := int(terms)%41, 1+int(off>>2)%9, 1+int(width>>2)%40
		transposed, fresh := width&1 != 0, width&2 != 0
		panels := (cols + 7) / 8
		lda, ka := k, 1
		if transposed {
			lda, ka = 1, gemmRows+o
		}
		blkA := take(max(gemmRows*k, k*(gemmRows+o)))
		blkB := take(k*(8*panels+o) + o)[o:]
		c := take(gemmRows*(8*panels+o) + o)[o:]
		wantC := append([]float64(nil), c...)
		var wantNaN bool
		scalarOnly(func() {
			wantNaN = f64Gemm4x8(k, blkA, lda, ka, blkB, 8*panels+o, wantC, 8*panels+o, panels, fresh)
		})
		gotNaN := f64Gemm4x8(k, blkA, lda, ka, blkB, 8*panels+o, c, 8*panels+o, panels, fresh)
		what := fmt.Sprintf("f64Gemm4x8 k=%d panels=%d transposed=%v fresh=%v", k, panels, transposed, fresh)
		requireSameBits(t, what, c, wantC)
		if gotNaN != wantNaN {
			t.Fatalf("%s: NaN flag %v, plain Go %v", what, gotNaN, wantNaN)
		}

		pa, pb := FromSlice(m, k, take(m*k)), FromSlice(k, cols, take(k*cols))
		want, at := skipLoop(pa, pb), pa.T()
		defer func(on bool) { simdOn = on }(simdOn)
		for _, on := range gateSettings() {
			simdOn = on
			for p, run := range []func(dst *Matrix){
				func(dst *Matrix) { MatMulInto(pa, pb, dst) },
				func(dst *Matrix) { TMatMulInto(at, pb, dst) },
			} {
				got := New(m, cols)
				got.Fill(math.NaN())
				run(got)
				requireSameBits(t, fmt.Sprintf("%s %dx%dx%d gate=%v", productNames[2*p], m, k, cols, on), got.Data, want.Data)
			}
		}
	})
}
