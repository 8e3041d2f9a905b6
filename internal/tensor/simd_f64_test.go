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

// accumRowsRef is F64AccumRows written the naive way, one column at a time:
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

func TestF64AxpyBitsMatchScalar(t *testing.T) {
	requireVectorKernels(t)
	rng := rand.New(rand.NewPCG(41, 43))
	coefs := append([]float64{0.5, -2.75}, f64Specials...)
	for n := 0; n <= 67; n++ {
		for _, off := range []int{0, 1, 3} { // 8- and 24-byte offsets: never 32-byte aligned
			for _, a := range coefs {
				x := mixedVals(rng, n+off)[off:]
				y := mixedVals(rng, n+off)[off:]
				want := append([]float64(nil), y...)
				scalarOnly(func() { F64Axpy(a, x, want) })
				F64Axpy(a, x, y)
				requireSameBits(t, "F64Axpy", y, want)
			}
		}
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
				scalarOnly(func() { F64AccumRows(coef, idx, x, nrows, stride, scalar) })
				F64AccumRows(coef, idx, x, nrows, stride, acc)
				requireSameBits(t, "F64AccumRows scalar path vs naive loop", scalar, ref)
				requireSameBits(t, "F64AccumRows", acc, scalar)
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
		mustPanic("row == nrows", func() { F64AccumRows([]float64{1}, []int32{3}, x, 3, 40, acc) })
		mustPanic("negative row", func() { F64AccumRows([]float64{1}, []int32{-1}, x, 3, 40, acc) })
		mustPanic("x too short", func() { F64AccumRows([]float64{1}, []int32{0}, x, 4, 40, acc) })
		mustPanic("idx shorter than coef", func() { F64AccumRows([]float64{1, 2}, []int32{0}, x, 3, 40, acc) })
		// A zero coefficient skips its term before the index is looked at,
		// on both paths.
		F64AccumRows([]float64{0}, []int32{99}, x, 3, 40, acc)
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

// TestF64DenseKernelsGateOnOff runs the float64 kernels that pick a vector
// inner loop with the gate on and off. Shapes cover the 32/4/1 column
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
		var mmS, tmS, addS *Matrix
		scalarOnly(func() {
			mmS, tmS = MatMul(a, b), TMatMul(a, w)
			addS = w.Clone()
			addS.AddScaled(-1.5, w)
		})
		if c.special == sparse {
			requireMostlyFinite(t, "TMatMul", tmS.Data)
		}
		add := w.Clone()
		add.AddScaled(-1.5, w)
		requireSameBits(t, "MatMul", MatMul(a, b).Data, mmS.Data)
		requireSameBits(t, "TMatMul", TMatMul(a, w).Data, tmS.Data)
		requireSameBits(t, "AddScaled", add.Data, addS.Data)
	}
}

// TestTMatMulBitsIndependentOfWorkers: TMatMulInto splits its output rows
// among workers by work, so a 70-row output fans out to every worker. The
// bits must be those of the naive loop at every worker count, gate on and
// off. Every seventh row of a is ±0 and the same row of b holds ±Inf, NaN,
// −0 and a denormal: the skip, not 0·b, decides those terms. The other
// rows are finite, so a change of sum order shows in the bits.
func TestTMatMulBitsIndependentOfWorkers(t *testing.T) {
	rng := rand.New(rand.NewPCG(67, 71))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), math.SmallestNonzeroFloat64}
	gates := []bool{false}
	if simdOn {
		gates = append(gates, true)
	}
	defer func(on bool) { simdOn = on }(simdOn)
	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	const rows, outRows = 600, 70
	for _, n := range []int{5, 33, 67} {
		a, b := mixedMat(rng, rows, outRows, 0, 0.3), mixedMat(rng, rows, n, 0, 0)
		for k := 0; k < rows; k += 7 {
			arow, brow := a.Row(k), b.Row(k)
			for i := range arow {
				arow[i] = math.Copysign(0, float64(i%2*2-1))
			}
			for j := range brow {
				brow[j] = specials[(k+j)%len(specials)]
			}
		}
		want := New(outRows, n)
		for i := 0; i < outRows; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < rows; k++ {
					if av := a.At(k, i); av != 0 {
						s += float64(av * b.At(k, j)) // the conversion forbids fusing
					}
				}
				want.Set(i, j, s)
			}
		}
		requireMostlyFinite(t, "naive aᵀ·b", want.Data)
		for _, on := range gates {
			simdOn = on
			for w := 1; w <= 4; w++ {
				par.SetMaxWorkers(w)
				got := New(outRows, n)
				got.Fill(math.NaN()) // the kernel must overwrite, not add
				TMatMulInto(a, b, got)
				requireSameBits(t, fmt.Sprintf("TMatMulInto n=%d gate=%v workers=%d", n, on, w), got.Data, want.Data)
			}
		}
	}
}

// FuzzF64KernelsMatchScalar feeds the two float64 assembly kernels arbitrary
// bit patterns, lengths and alignments and requires the scalar path's bits.
// vals is read as little-endian float64s and reused cyclically.
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
			F64AccumRows(coef, idx, x, nrows, n, wantAcc)
			F64Axpy(a, x[:n], wantY)
		})
		y := append([]float64(nil), acc...)
		F64AccumRows(coef, idx, x, nrows, n, acc)
		F64Axpy(a, x[:n], y)
		requireSameBits(t, "F64AccumRows", acc, wantAcc)
		requireSameBits(t, "F64Axpy", y, wantY)
	})
}
