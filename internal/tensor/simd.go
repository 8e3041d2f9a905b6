// The dense and sparse products of both tiers. The dense ones run on one
// generic driver, gemm, over a block kernel per tier (f64Gemm4x8,
// f32Gemm4x16); the sparse one runs on f64AccumRows or f32Axpy. Only these
// kernels read the gate, simdOn: the CPU has the AVX2 kernels of
// simd_amd64.s and SCALEGNN_NOSIMD is unset; with it off a kernel runs its
// plain-Go body. Drivers pick the tier's kernel by one type switch per
// call and call it statically (a func value costs a par closure
// allocation, a pick per row 20–40 % of a width-1 or -5 SpMM). a·bᵀ is bᵀ
// written out, then a·b.
//
// The two tiers make different promises. float32: each output element is
// one chain over k in increasing order from 0, with no zero skip, so its
// bits do not depend on row or column blocking or on the worker count —
// which is what makes served (chunked) output equal offline output. The
// chain is fused with the gate on, so the two gate settings agree to a
// tolerance. float64: multiply, then add, one accumulator per output
// element, k increasing, a zero a-term skipped; vector and scalar bodies
// give the same bits, so fingerprints, checkpoints and distributed
// replicas do not depend on whether the gate is on. No plain-Go body
// fuses: each product is converted to its type before its add, which the
// Go spec makes a rounding point (arm64 would otherwise emit FMADD).
package tensor

import (
	"fmt"
	"unsafe"

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

// tileRows is the identity index list that turns f64AccumRows into one row
// of a dense k-tile (gemmRow) or into Axpy: row k of b goes with the k-th
// coefficient.
var tileRows = func() (r [mmBlockK]int32) {
	for i := range r {
		r[i] = int32(i)
	}
	return r
}()

// The dense products of both tiers run on one driver, gemm, and one block
// kernel per tier: 4 output rows × every full panel of a row, a panel
// being one cache line of columns (16 float32s, 8 float64s).
const (
	gemmRows       = 4
	gemmPanelBytes = 64
)

// gemmTileBytes bounds the k-tile of b that gemm rereads for every 4-row
// block: 32 KiB, within the L1 data cache. gemmTailFloats bounds the
// packed partial panel, which Go zeroes on each call that packs one.
const (
	gemmTileBytes  = 32 << 10
	gemmTailFloats = 1024
)

// gemm computes dst = a·b on either tier, where element (i, k) of a is
// a[i*lda+k*ka]: MatMulInto passes a (ka = 1), TMatMulInto aᵀ in place
// (lda = 1). Workers split dst's rows, at least minChunk each. Per k-tile,
// each 4-row block of a worker's rows runs the block kernel across every
// full panel of b in place, then across the partial last panel packed
// into zero-padded stack scratch (through a copy of dst's block); the
// rows left over run gemmRow. float64 reruns a block whose kernel result
// holds a NaN on gemmRow, which skips a zero a-term; a NaN stays NaN, so
// the last k-tile's flag covers every tile.
func gemm[T Elem](a []T, lda, ka int, b, dst *Mat[T], minChunk int) {
	m, n, kdim := dst.Rows, dst.Cols, b.Rows
	if kdim == 0 {
		clear(dst.Data)
		return
	}
	pw := gemmPanelBytes / int(unsafe.Sizeof(T(0)))
	full, kt := n-n%pw, min(mmBlockK, max(gemmTileBytes/gemmPanelBytes*pw/max(n, 1), 1))
	if full < n {
		kt = min(kt, gemmTailFloats/pw)
	}
	par.Range(m, minChunk, func(lo, hi int) {
		var tail []T
		if full < n && hi-lo >= gemmRows {
			var buf [gemmTailFloats]T
			tail = buf[:]
		}
		row := func(i, kb, kn int) { // adds k-tile kb of row i on gemmRow
			if ka == 1 {
				gemmRow(a[i*lda+kb:][:kn], b.Data[kb*n:], n, dst.Row(i))
				return
			}
			var coef [32]T
			for k0 := kb; k0 < kb+kn; k0 += len(coef) {
				c := coef[:min(len(coef), kb+kn-k0)]
				for k := range c {
					c[k] = a[i*lda+(k0+k)*ka]
				}
				gemmRow(c, b.Data[k0*n:], n, dst.Row(i))
			}
		}
		for kb := 0; kb < kdim; kb += kt {
			kn := min(kt, kdim-kb)
			if tail != nil {
				clear(tail[:kn*pw])
				for k := 0; k < kn; k++ {
					copy(tail[k*pw:], b.Row(kb + k)[full:])
				}
			}
			i := lo
			for ; i+gemmRows <= hi; i += gemmRows {
				pa := a[i*lda+kb*ka:]
				nan := gemmBlock(kn, pa, lda, ka, b.Data[kb*n:], n, dst.Data[i*n:], n, full/pw, kb == 0)
				if tail != nil {
					var blk [gemmRows * gemmPanelBytes / 4]T // sized for float32
					for r := 0; r < gemmRows && kb > 0; r++ {
						copy(blk[r*pw:][:n-full], dst.Row(i + r)[full:])
					}
					nan = gemmBlock(kn, pa, lda, ka, tail[:kn*pw], pw, blk[:gemmRows*pw], pw, 1, kb == 0) || nan
					for r := 0; r < gemmRows; r++ {
						copy(dst.Row(i + r)[full:], blk[r*pw:][:n-full])
					}
				}
				for r := i; nan && kb+kn == kdim && r < i+gemmRows; r++ {
					clear(dst.Row(r))
					for k0 := 0; k0 < kdim; k0 += kt {
						row(r, k0, min(kt, kdim-k0))
					}
				}
			}
			for ; i < hi; i++ {
				if kb == 0 {
					clear(dst.Row(i))
				}
				row(i, kb, kn)
			}
		}
	})
}

// gemmBlock runs the tier's block kernel on 4 rows of a against panels
// full panels of b; true if a float64 result is NaN.
func gemmBlock[T Elem](k int, a []T, lda, ka int, b []T, ldb int, c []T, ldc, panels int, fresh bool) bool {
	switch c := any(c).(type) {
	case []float64:
		return f64Gemm4x8(k, any(a).([]float64), lda, ka, any(b).([]float64), ldb, c, ldc, panels, fresh)
	case []float32:
		f32Gemm4x16(k, any(a).([]float32), lda, ka, any(b).([]float32), ldb, c, ldc, panels, fresh)
	}
	return false
}

// gemmRow adds Σ_k coef[k]·b[k*ldb:][:len(orow)] into orow, k increasing:
// at float64 on f64AccumRows, which skips a zero coefficient (the
// contract), at float32 as one f32Axpy per term (the block kernel's chain).
func gemmRow[T Elem](coef, b []T, ldb int, orow []T) {
	switch orow := any(orow).(type) {
	case []float64:
		f64AccumRows(any(coef).([]float64), tileRows[:len(coef)], any(b).([]float64), len(coef), ldb, orow)
	case []float32:
		b := any(b).([]float32)
		for k, c := range any(coef).([]float32) {
			f32Axpy(c, b[k*ldb:][:len(orow)], orow)
		}
	}
}

// f32Gemm4x16 adds a[4×k]·b[k×16·panels] into c[4×16·panels], or stores
// it when fresh, element (r, kk) of a at a[r*lda+kk*ka]: one chain per
// element over k in increasing order, fused by f32Gemm4x16AVX with the
// gate on and run by gemmGo with it off. The elements it names must lie
// inside the slices; it checks so before the assembly, which does not.
func f32Gemm4x16(k int, a []float32, lda, ka int, b []float32, ldb int, c []float32, ldc, panels int, fresh bool) {
	if !gemmInBounds(k, a, lda, ka, b, ldb, c, ldc, panels*16) {
		return
	}
	if simdOn {
		f32Gemm4x16AVX(k, a, lda, ka, b, ldb, c, ldc, panels, fresh)
		return
	}
	gemmGo(k, a, lda, ka, b, ldb, c, ldc, panels*16, fresh)
}

// f64Gemm4x8 is f32Gemm4x16 at float64 on 8-column panels, run by
// f64Gemm4x8AVX with the gate on: a multiply, then an add, per term,
// where a zero a-term adds 0·b (the AVX comment says why that is the
// skipping loop's result unless it is NaN). It reports whether any element
// of the block is NaN; both bodies give the same bits.
func f64Gemm4x8(k int, a []float64, lda, ka int, b []float64, ldb int, c []float64, ldc, panels int, fresh bool) bool {
	w := panels * 8
	if !gemmInBounds(k, a, lda, ka, b, ldb, c, ldc, w) {
		return false
	}
	if simdOn {
		return f64Gemm4x8AVX(k, a, lda, ka, b, ldb, c, ldc, panels, fresh)
	}
	gemmGo(k, a, lda, ka, b, ldb, c, ldc, w, fresh)
	for r := 0; r < gemmRows; r++ {
		for _, v := range c[r*ldc:][:w] {
			if v != v {
				return true
			}
		}
	}
	return false
}

// gemmInBounds reports whether a block kernel over w columns has work,
// panicking when its elements do not lie inside a, b and c.
func gemmInBounds[T Elem](k int, a []T, lda, ka int, b []T, ldb int, c []T, ldc, w int) bool {
	if w == 0 {
		return false
	}
	if k > 0 {
		_ = a[(gemmRows-1)*lda+(k-1)*ka]
		_ = b[(k-1)*ldb+w-1]
	}
	_ = c[(gemmRows-1)*ldc+w-1]
	return true
}

// gemmGo is the plain-Go body of both block kernels, over w columns (a
// multiple of 8): eight partial sums at a time stay in registers across
// all of k, each product converted to T before its add, no term skipped.
func gemmGo[T Elem](k int, a []T, lda, ka int, b []T, ldb int, c []T, ldc, w int, fresh bool) {
	for r := 0; r < gemmRows; r++ {
		for j := 0; j < w; j += 8 {
			cq := c[r*ldc+j:][:8:8]
			var s0, s1, s2, s3, s4, s5, s6, s7 T
			if !fresh {
				s0, s1, s2, s3, s4, s5, s6, s7 = cq[0], cq[1], cq[2], cq[3], cq[4], cq[5], cq[6], cq[7]
			}
			for kk, ao, bo := 0, r*lda, j; kk < k; kk, ao, bo = kk+1, ao+ka, bo+ldb {
				av, bq := a[ao], b[bo:bo+8:bo+8]
				s0 += T(av * bq[0])
				s1 += T(av * bq[1])
				s2 += T(av * bq[2])
				s3 += T(av * bq[3])
				s4 += T(av * bq[4])
				s5 += T(av * bq[5])
				s6 += T(av * bq[6])
				s7 += T(av * bq[7])
			}
			cq[0], cq[1], cq[2], cq[3], cq[4], cq[5], cq[6], cq[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
	}
}
