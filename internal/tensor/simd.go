// The dense and sparse products of both tiers. float64 runs both on
// f64AccumRows; float32 runs the dense ones on f32Gemm4x16 and the sparse
// one on f32Axpy. Only these kernels read the gate, simdOn: the CPU has the
// AVX2 kernels of simd_amd64.s and SCALEGNN_NOSIMD is unset; with it off a
// kernel runs its plain-Go body. Each product picks its tier's driver by one
// type switch per call; the driver calls the kernel statically (a func value
// costs a par closure allocation, a pick per row 20–40 % of a width-1 or -5
// SpMM). a·bᵀ is bᵀ written out, then a·b.
//
// The two tiers make different promises. float32 runs on one block
// kernel, f32Gemm4x16: each output element is one chain over k in
// increasing order from 0, with no zero skip, so its bits do not depend on
// row or column blocking or on the worker count — which is what makes
// served (chunked) output equal offline output. The chain is fused with
// the gate on, so the two gate settings agree to a tolerance. float64 runs
// on f64AccumRows: multiply, then add, one accumulator per output element,
// k increasing, a zero a-term skipped; its vector and scalar bodies give
// the same bits, so fingerprints, checkpoints and distributed replicas do
// not depend on whether the gate is on. No plain-Go body fuses: each
// product is converted to its type before its add, which the Go spec makes
// a rounding point (arm64 would otherwise emit FMADD).
package tensor

import (
	"fmt"

	"scalegnn/internal/par"
)

// FastF32 reports whether the vector kernels are active on this machine
// (amd64 with AVX2+FMA, not disabled via SCALEGNN_NOSIMD=1). One gate covers
// the float32 and the float64 kernels; the name predates the float64 ones.
func FastF32() bool { return simdOn }

// f32Axpy computes y += a*x over equal-length float32 slices (the caller
// guarantees it), fused and vectorized with the gate on; it never skips.
func f32Axpy(a float32, x, y []float32) {
	if simdOn {
		f32AxpyAVX(a, x, y)
		return
	}
	axpyUnrolled(a, x, y)
}

// f64AccumRows adds Σ_k coef[k]·row(idx[k]) into acc, where row(r) is
// x[r*stride : r*stride+len(acc)] and x holds nrows such rows: terms are
// added in increasing k and a zero coef[k] skips its term. With idx the arcs
// of a CSR row this is one destination row of SpMMInto; with idx the
// identity it is one k-tile of a matmul output row; with one term it is
// Axpy. The vector path keeps the partial sums of 32 columns in registers
// across all k; it and the scalar path give the same bits.
func f64AccumRows(coef []float64, idx []int32, x []float64, nrows, stride int, acc []float64) {
	n := len(acc)
	if len(idx) != len(coef) || nrows < 0 || stride < 0 || (nrows > 0 && (nrows-1)*stride+n > len(x)) {
		panic(fmt.Sprintf("tensor: f64AccumRows %d coefs, %d indices, %d rows of stride %d and width %d in %d values",
			len(coef), len(idx), nrows, stride, n, len(x)))
	}
	if simdOn {
		if !f64AccumRowsAVX(coef, idx, x, nrows, stride, acc) {
			panic(fmt.Sprintf("tensor: f64AccumRows row index outside [0,%d)", nrows))
		}
		return
	}
	for k, c := range coef {
		if c == 0 {
			continue
		}
		r := int(idx[k])
		if r < 0 || r >= nrows {
			panic(fmt.Sprintf("tensor: f64AccumRows row index %d outside [0,%d)", r, nrows))
		}
		axpyUnrolled(c, x[r*stride:r*stride+n], acc)
	}
}

// minChunkSparse is the least rows one worker of SpMMInto takes. Sparse
// rows are cheaper than dense ones, so the floor is higher than
// minChunkDense.
const minChunkSparse = 256

// SpMMInto is the sparse product, the one body of every aggregation: a CSR
// matrix of len(offsets)-1 rows times x. Row r of dst is set to
// diag[r]·x[r] plus Σ coef[e]·x[idx[e]] over e in [offsets[r],
// offsets[r+1]), terms in increasing e; a zero coefficient (or diag[r])
// skips its term, and diag may be nil. With rows nil every row of dst is
// written, else only the listed ones and the rest of dst is left as it
// was. A row's value depends only on its own terms, never on which rows
// are computed beside it or on the worker count, so a subset of rows has
// the bits of the same rows of the full product. dst must not overlap x.
func SpMMInto[T Elem](offsets []int64, idx []int32, coef, diag []T, x, dst *Mat[T], rows []int32) {
	n := len(offsets) - 1
	if n < 0 || dst.Rows != n || dst.Cols != x.Cols || len(idx) != len(coef) || (diag != nil && (len(diag) != n || x.Rows != n)) {
		panic(fmt.Sprintf("tensor: SpMMInto %d rows, %d indices, %d coefficients, %d diagonal: %dx%d -> %dx%d",
			n, len(idx), len(coef), len(diag), x.Rows, x.Cols, dst.Rows, dst.Cols))
	}
	if Overlaps(x.Data, dst.Data) {
		panic("tensor: SpMMInto dst overlaps x")
	}
	count := dst.Rows
	if rows != nil {
		count = len(rows)
	}
	switch dst := any(dst).(type) {
	case *Matrix:
		f64SpMM(offsets, idx, any(coef).([]float64), any(diag).([]float64), any(x).(*Matrix), dst, rows, count)
	case *Mat[float32]:
		f32SpMM(offsets, idx, any(coef).([]float32), any(diag).([]float32), any(x).(*Mat[float32]), dst, rows, count)
	}
}

// f64SpMM is SpMMInto's row loop at float64: one f64AccumRows per row.
func f64SpMM(offsets []int64, idx []int32, coef, diag []float64, x, dst *Matrix, rows []int32, count int) {
	par.Range(count, minChunkSparse, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r, orow := spmmRow(rows, i, diag, x, dst)
			s, e := offsets[r], offsets[r+1]
			f64AccumRows(coef[s:e], idx[s:e], x.Data, x.Rows, x.Cols, orow)
		}
	})
}

// f32SpMM is SpMMInto's row loop at float32: one f32Axpy per term.
func f32SpMM(offsets []int64, idx []int32, coef, diag []float32, x, dst *Mat[float32], rows []int32, count int) {
	par.Range(count, minChunkSparse, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r, orow := spmmRow(rows, i, diag, x, dst)
			s, e := offsets[r], offsets[r+1]
			for k, c := range coef[s:e] {
				if c != 0 {
					j := int(idx[s+int64(k)]) * len(orow)
					f32Axpy(c, x.Data[j:j+len(orow)], orow)
				}
			}
		}
	})
}

// spmmRow returns SpMMInto's i-th row r (i itself when rows is nil) and
// row r of dst, started at diag[r]·x[r], or cleared when diag is nil or
// diag[r] is zero.
func spmmRow[T Elem](rows []int32, i int, diag []T, x, dst *Mat[T]) (int, []T) {
	r := i
	if rows != nil {
		r = int(rows[i])
	}
	orow := dst.Row(r)
	if diag == nil || diag[r] == 0 {
		clear(orow)
		return r, orow
	}
	for j, v := range x.Row(r) {
		orow[j] = diag[r] * v
	}
	return r, orow
}

// tileRows is the identity index list that turns f64AccumRows into a dense
// k-tile: row k of the b tile belongs to the k-th a-term.
var tileRows = func() (r [mmBlockK]int32) {
	for i := range r {
		r[i] = int32(i)
	}
	return r
}()

// f64MatMul computes dst = a·b at float64. Each output row takes one
// f64AccumRows per k-tile of b, whose vector body keeps 32 columns of
// partial sums in registers across the tile. Workers split the rows.
func f64MatMul(a, b, dst *Matrix) {
	n := b.Cols
	par.Range(a.Rows, minChunkDense, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := dst.Row(i)
			clear(orow)
			for kb := 0; kb < len(arow); kb += mmBlockK {
				kn := min(mmBlockK, len(arow)-kb)
				f64AccumRows(arow[kb:kb+kn], tileRows[:kn], b.Data[kb*n:(kb+kn)*n], kn, n, orow)
			}
		}
	})
}

// tmBlockI is how many columns of a f64TMatMul gathers from one k-tile at
// a time: eight float64s, one cache line of each row of a.
const tmBlockI = 8

// tmTileFloats bounds the k-tile of b that f64TMatMul rereads for every
// output row: 2 048 float64s, 16 KiB, so it stays in the L1 data cache.
const tmTileFloats = 2048

// f64TMatMul computes dst = aᵀ·b at float64. Per k-tile, tmBlockI columns
// of a are gathered into stack scratch, and each is handed with the tile
// of b to f64AccumRows, which adds Σ_k a[k][i]·b[k][:] into output row i.
// Workers split the output rows by work, at least minWorkTMatMul each.
func f64TMatMul(a, b, dst *Matrix) {
	n := b.Cols
	kt := min(mmBlockK, max(tmTileFloats/max(n, 1), 1))
	rowWork := max(a.Rows*n, 1)
	par.Range(a.Cols, (minWorkTMatMul+rowWork-1)/rowWork, func(lo, hi int) {
		var cols [tmBlockI][mmBlockK]float64
		for i := lo; i < hi; i++ {
			clear(dst.Row(i))
		}
		for kb := 0; kb < a.Rows; kb += kt {
			kn := min(kt, a.Rows-kb)
			bblk := b.Data[kb*n : (kb+kn)*n]
			for i0 := lo; i0 < hi; i0 += tmBlockI {
				w := min(tmBlockI, hi-i0)
				for k := 0; k < kn; k++ {
					for c, v := range a.Data[(kb+k)*a.Cols+i0:][:w] {
						cols[c][k] = v
					}
				}
				for c := 0; c < w; c++ {
					f64AccumRows(cols[c][:kn], tileRows[:kn], bblk, kn, n, dst.Row(i0+c))
				}
			}
		}
	})
}

// The float32 products run on one block kernel, f32Gemm4x16: 4 output
// rows × 16 output columns per call, over one k-tile. Every output
// element is cleared, then the kernel continues its one chain tile
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

// f32MatMul computes dst = a·b at float32. a is read in place; per k-tile
// each 16-column panel of b is read in place, or packed into zero-padded
// stack scratch when it is the partial last panel, and then swept by
// every 4-row block of the worker's rows.
func f32MatMul(a, b, dst *Mat[float32]) {
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
				pb, ldb := b.Data[kb*n+j:], n
				if w < gemmCols {
					pb, ldb = panel[:kn*gemmCols], gemmCols
					clear(pb)
					for k := 0; k < kn; k++ {
						copy(pb[k*gemmCols:][:w], b.Row(kb + k)[j:])
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

// f32Gemm4x16 adds a[4×k]·b[k×16] into c[4×16], element (r, kk) of a at
// a[r*lda+kk*ka]: one chain per element over k in increasing order, fused
// by f32Gemm4x16AVX with the gate on and run in plain Go with it off. The
// 4×k elements of a, the k rows of b and the 4 rows of c it reads or
// writes must lie inside the slices; it checks so before the assembly,
// which does not.
func f32Gemm4x16(k int, a []float32, lda, ka int, b []float32, ldb int, c []float32, ldc int) {
	if k == 0 {
		return
	}
	_ = a[(gemmRows-1)*lda+(k-1)*ka]
	_ = b[(k-1)*ldb+gemmCols-1]
	_ = c[(gemmRows-1)*ldc+gemmCols-1]
	if simdOn {
		f32Gemm4x16AVX(k, a, lda, ka, b, ldb, c, ldc)
		return
	}
	// Eight partial sums at a time stay in registers across all of k.
	for r := 0; r < gemmRows; r++ {
		for j := 0; j < gemmCols; j += 8 {
			cq := c[r*ldc+j:][:8:8]
			s0, s1, s2, s3, s4, s5, s6, s7 := cq[0], cq[1], cq[2], cq[3], cq[4], cq[5], cq[6], cq[7]
			for kk, ao, bo := 0, r*lda, j; kk < k; kk, ao, bo = kk+1, ao+ka, bo+ldb {
				av, bq := a[ao], b[bo:bo+8:bo+8]
				s0 += float32(av * bq[0])
				s1 += float32(av * bq[1])
				s2 += float32(av * bq[2])
				s3 += float32(av * bq[3])
				s4 += float32(av * bq[4])
				s5 += float32(av * bq[5])
				s6 += float32(av * bq[6])
				s7 += float32(av * bq[7])
			}
			cq[0], cq[1], cq[2], cq[3], cq[4], cq[5], cq[6], cq[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
	}
}
