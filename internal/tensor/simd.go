// Vector fast paths for both tiers. The generic kernels in tensor.go pick
// their inner kernel here once per call, by element type (no boxing, no
// allocation), when simdOn says the CPU has the AVX2 kernels of
// simd_amd64.s; otherwise they run the portable scalar loops.
//
// The two tiers make different promises. The float32 products run on one
// FMA block kernel: each output element is one fused chain over k in
// increasing order from 0, with no zero skip, so its bits do not depend
// on row or column blocking or on the worker count — which is what makes
// served (chunked) output equal offline output — and agree with the
// scalar loops, which do not fuse, to a tolerance. float64 kernels are
// bitwise equal to the scalar loops — multiply, then add, one accumulator
// per output element, terms in the same order — so fingerprints,
// checkpoints and distributed replicas do not depend on whether the gate
// is on.
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

// The float32 products run on one block kernel, f32Gemm4x16AVX: 4 output
// rows × 16 output columns per call, over one k-tile. Every output
// element is cleared, then the kernel continues its one FMA chain tile
// after tile, so each element is the chain over all of k in increasing
// order from 0. A block that is short of 4 rows or 16 columns goes
// through the same kernel on zero-padded stack scratch, never a second
// kernel: the bits of an element do not depend on where the blocks, the
// k-tiles or the workers' row ranges fall.
const (
	gemmRows = 4
	gemmCols = 16
)

// f32TileFloats bounds the k-tile of b that f32TMatMul rereads for every
// 4-row block: 8 192 float32s, 32 KiB, within the L1 data cache.
const f32TileFloats = 8192

// f32MatMul computes dst = a·op(b) at float32, where op(b) is b, or bᵀ
// when bt is set. a is read in place; per k-tile each 16-column panel of
// op(b) is read in place, or packed into stack scratch when it is bᵀ or
// the partial last panel, and then swept by every 4-row block of the
// worker's rows.
func f32MatMul(a, b, dst *Mat[float32], bt bool) {
	n, kdim := dst.Cols, a.Cols
	par.Range(a.Rows, minChunkDense, func(lo, hi int) {
		var panel [mmBlockK * gemmCols]float32
		var rows [gemmRows * mmBlockK]float32
		for i := lo; i < hi; i++ {
			clear(dst.Row(i))
		}
		for kb := 0; kb < kdim; kb += mmBlockK {
			kn := min(mmBlockK, kdim-kb)
			for j := 0; j < n; j += gemmCols {
				w := min(gemmCols, n-j)
				pb, ldb := panel[:kn*gemmCols], gemmCols
				if !bt && w == gemmCols {
					pb, ldb = b.Data[kb*n+j:], n
				} else {
					clear(pb)
					for k := 0; k < kn; k++ {
						prow := pb[k*gemmCols:][:w]
						if bt {
							for c := range prow {
								prow[c] = b.Data[(j+c)*kdim+kb+k]
							}
						} else {
							copy(prow, b.Row(kb + k)[j:])
						}
					}
				}
				for i := lo; i < hi; i += gemmRows {
					r := min(gemmRows, hi-i)
					pa, lda := a.Data[i*kdim+kb:], kdim
					if r < gemmRows {
						clear(rows[:gemmRows*kn])
						for c := 0; c < r; c++ {
							copy(rows[c*kn:][:kn], a.Row(i + c)[kb:])
						}
						pa, lda = rows[:gemmRows*kn], kn
					}
					f32Block(kn, pa, lda, 1, pb, ldb, dst, i, j, r, w)
				}
			}
		}
	})
}

// f32TMatMul computes dst = aᵀ·b at float32. Per k-tile, a full block of
// four columns of a is read in place (the kernel strides a by row per k);
// a partial block is gathered into zero-padded stack scratch. Each block
// runs against every 16-column panel of b in place, and the partial last
// panel is packed once per k-tile. The k-tile keeps the tile of b within
// f32TileFloats, and workers split the output rows by work, at least
// minWorkTMatMul each.
func f32TMatMul(a, b, dst *Mat[float32]) {
	n, p := b.Cols, a.Cols
	full := n &^ (gemmCols - 1) // columns in whole panels
	kt := min(mmBlockK, max(f32TileFloats/max(n, 1), 1))
	rowWork := max(a.Rows*n, 1)
	par.Range(p, (minWorkTMatMul+rowWork-1)/rowWork, func(lo, hi int) {
		var tail [mmBlockK * gemmCols]float32
		var cols [mmBlockK * gemmRows]float32
		for i := lo; i < hi; i++ {
			clear(dst.Row(i))
		}
		for kb := 0; kb < a.Rows; kb += kt {
			kn := min(kt, a.Rows-kb)
			if full < n {
				clear(tail[:kn*gemmCols])
				for k := 0; k < kn; k++ {
					copy(tail[k*gemmCols:], b.Row(kb + k)[full:])
				}
			}
			for i := lo; i < hi; i += gemmRows {
				r := min(gemmRows, hi-i)
				pa, ka := a.Data[kb*p+i:], p
				if r < gemmRows {
					clear(cols[:kn*gemmRows])
					for k := 0; k < kn; k++ {
						copy(cols[k*gemmRows:][:r], a.Row(kb + k)[i:])
					}
					pa, ka = cols[:kn*gemmRows], gemmRows
				}
				for j := 0; j < full; j += gemmCols {
					f32Block(kn, pa, 1, ka, b.Data[kb*n+j:], n, dst, i, j, r, gemmCols)
				}
				if full < n {
					f32Block(kn, pa, 1, ka, tail[:kn*gemmCols], gemmCols, dst, i, full, r, n-full)
				}
			}
		}
	})
}

// f32Block adds pa·pb into rows [i, i+r) and columns [j, j+w) of dst, where
// pa holds 4 rows of a k-tile of kn (element (r, k) at pa[r*lda+k*ka]) and
// pb kn rows of a 16-column panel (stride ldb). Rows of pa past r and
// columns of pb past w reach only the part of the block that is not
// stored: a partial block is run in a zero-padded copy of dst's block.
func f32Block(kn int, pa []float32, lda, ka int, pb []float32, ldb int, dst *Mat[float32], i, j, r, w int) {
	n := dst.Cols
	if r == gemmRows && w == gemmCols {
		f32Gemm4x16(kn, pa, lda, ka, pb, ldb, dst.Data[i*n+j:], n)
		return
	}
	var c [gemmRows * gemmCols]float32
	for rr := 0; rr < r; rr++ {
		copy(c[rr*gemmCols:][:w], dst.Data[(i+rr)*n+j:])
	}
	f32Gemm4x16(kn, pa, lda, ka, pb, ldb, c[:], gemmCols)
	for rr := 0; rr < r; rr++ {
		copy(dst.Data[(i+rr)*n+j:][:w], c[rr*gemmCols:])
	}
}

// f32Gemm4x16 is f32Gemm4x16AVX behind the bounds checks the assembly does
// not make: the 4×k elements of a, the k rows of b and the 4 rows of c it
// reads or writes must lie inside the slices.
func f32Gemm4x16(k int, a []float32, lda, ka int, b []float32, ldb int, c []float32, ldc int) {
	if k == 0 {
		return
	}
	_ = a[(gemmRows-1)*lda+(k-1)*ka]
	_ = b[(k-1)*ldb+gemmCols-1]
	_ = c[(gemmRows-1)*ldc+gemmCols-1]
	f32Gemm4x16AVX(k, a, lda, ka, b, ldb, c, ldc)
}
