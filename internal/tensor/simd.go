// Vector fast paths for both tiers. The generic kernels in tensor.go pick
// their inner kernel here once per call, by element type (no boxing, no
// allocation), when simdOn says the CPU has the AVX2 kernels of
// simd_amd64.s; otherwise they run the portable scalar loops.
//
// The two tiers make different promises. float32 kernels use FMA and
// partial accumulators and agree with the scalar loops to a tolerance.
// float64 kernels are bitwise equal to the scalar loops — multiply, then
// add, one accumulator per output element, terms in the same order — so
// fingerprints, checkpoints and distributed replicas do not depend on
// whether the gate is on.
package tensor

import (
	"fmt"

	"scalegnn/internal/par"
)

// FastF32 reports whether the vector kernels are active on this machine
// (amd64 with AVX2+FMA, not disabled via SCALEGNN_NOSIMD=1). One gate covers
// the float32 and the float64 kernels; the name predates the float64 ones.
func FastF32() bool { return simdOn }

// F32Axpy computes y += a*x over equal-length float32 slices, vectorized
// when available. It is exported for sibling packages (the graph SpMM inner
// loop) that run concrete float32 hot loops.
func F32Axpy(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: F32Axpy length mismatch %d != %d", len(x), len(y)))
	}
	if simdOn {
		f32AxpyAVX(a, x, y)
		return
	}
	axpyUnrolled(a, x, y)
}

// F64Axpy computes y += a*x over equal-length float64 slices. The vector
// and the scalar path give the same bits: each element is one rounded
// product followed by one rounded sum.
func F64Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: F64Axpy length mismatch %d != %d", len(x), len(y)))
	}
	if simdOn {
		f64AxpyAVX(a, x, y)
		return
	}
	axpyUnrolled(a, x, y)
}

// F64AccumRows adds Σ_k coef[k]·row(idx[k]) into acc, where row(r) is
// x[r*stride : r*stride+len(acc)] and x holds nrows such rows: terms are
// added in increasing k and a zero coef[k] skips its term. With idx the arcs
// of a CSR row this is one destination row of the SpMM (exported for
// graph.OperatorOf); with idx the identity it is one k-tile of a matmul
// output row. The vector path keeps the partial sums of 32 columns in
// registers across all k; it and the scalar path give the same bits.
func F64AccumRows(coef []float64, idx []int32, x []float64, nrows, stride int, acc []float64) {
	n := len(acc)
	if len(idx) != len(coef) || nrows < 0 || stride < 0 || (nrows > 0 && (nrows-1)*stride+n > len(x)) {
		panic(fmt.Sprintf("tensor: F64AccumRows %d coefs, %d indices, %d rows of stride %d and width %d in %d values",
			len(coef), len(idx), nrows, stride, n, len(x)))
	}
	if simdOn {
		if !f64AccumRowsAVX(coef, idx, x, nrows, stride, acc) {
			panic(fmt.Sprintf("tensor: F64AccumRows row index outside [0,%d)", nrows))
		}
		return
	}
	for k, c := range coef {
		if c == 0 {
			continue
		}
		r := int(idx[k])
		if r < 0 || r >= nrows {
			panic(fmt.Sprintf("tensor: F64AccumRows row index %d outside [0,%d)", r, nrows))
		}
		axpyUnrolled(c, x[r*stride:r*stride+n], acc)
	}
}

// axpyOf returns the y += a*x kernel of tier T: the AVX2 one when the gate
// is on, else the scalar loop. Callers fetch it once per kernel call.
func axpyOf[T Elem]() func(a T, x, y []T) {
	if simdOn {
		var k any
		switch any(*new(T)).(type) {
		case float32:
			k = f32AxpyAVX
		case float64:
			k = f64AxpyAVX
		}
		return k.(func(a T, x, y []T))
	}
	return axpyUnrolled[T]
}

// matMulTileOf returns the k-tile kernel of MatMulInto at tier T (see
// matMulTile for the contract).
func matMulTileOf[T Elem]() func(ablk, bblk, orow []T, n int) {
	if simdOn {
		var k any
		switch any(*new(T)).(type) {
		case float32:
			k = matMulTileF32
		case float64:
			k = matMulTileF64
		}
		return k.(func(ablk, bblk, orow []T, n int))
	}
	return matMulTile[T]
}

// tileRows is the identity index list that turns F64AccumRows into a dense
// k-tile: row k of the b tile belongs to ablk[k].
var tileRows = func() (r [mmBlockK]int32) {
	for i := range r {
		r[i] = int32(i)
	}
	return r
}()

// matMulTileF64 is the float64 tile kernel: bitwise equal to matMulTile,
// with 32 columns of partial sums per pass instead of 8.
func matMulTileF64(ablk, bblk, orow []float64, n int) {
	F64AccumRows(ablk, tileRows[:len(ablk)], bblk, len(ablk), n, orow)
}

// matMulTileF32 is the float32 tile kernel: the 8-column register tile is
// one YMM accumulator group. f32GemmTileAVX keeps 4 k-strided partial sums
// to hide FMA latency, which reassociates the k-sum — allowed on the
// float32 tier (parity with float64 is tolerance-checked, not bitwise).
func matMulTileF32(ablk, bblk, orow []float32, n int) {
	j := 0
	for ; j+8 <= n; j += 8 {
		f32GemmTileAVX(ablk, bblk[j:], orow[j:j+8], n)
	}
	for ; j < n; j++ {
		s := orow[j]
		bo := j
		for _, av := range ablk {
			s += av * bblk[bo]
			bo += n
		}
		orow[j] = s
	}
}

// matMulTIntoF32 is the float32 a*bᵀ kernel: one vectorized dot product per
// output element.
func matMulTIntoF32(a, b, dst *Mat[float32]) {
	par.Range(a.Rows, minChunkDense, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := dst.Row(i)
			for j := 0; j < b.Rows; j++ {
				orow[j] = f32DotAVX(arow, b.Row(j))
			}
		}
	})
}
