//go:build amd64

package tensor

import "os"

// simdOn gates every AVX2 kernel in simd_amd64.s, float32 and float64
// alike. It is decided once at init (CPU capability plus the
// SCALEGNN_NOSIMD kill switch) and read-only afterwards, so the hot paths
// can branch on it without locks. Tests flip it temporarily to compare the
// vector and scalar paths.
var simdOn = cpuHasAVX2FMA() && os.Getenv("SCALEGNN_NOSIMD") == ""

// cpuHasAVX2FMA reports CPU+OS support for the AVX2/FMA kernels.
func cpuHasAVX2FMA() bool

// The kernels below keep no pointer past their return, so they are marked
// noescape: a caller's stack scratch (gathered columns, packed panels)
// stays on the stack.

// f32AxpyAVX computes y += a*x. Caller guarantees len(x) == len(y).
//
//go:noescape
func f32AxpyAVX(a float32, x, y []float32)

// f32Gemm4x16AVX adds a[4×k]·b[k×16] into c[4×16], one FMA chain per
// element over k in increasing order; element (r, kk) of a is
// a[r*lda+kk*ka]. Caller guarantees the block lies inside a, b and c (see
// f32Gemm4x16).
//
//go:noescape
func f32Gemm4x16AVX(k int, a []float32, lda, ka int, b []float32, ldb int, c []float32, ldc int)

// f64AxpyAVX computes y += a*x, multiply rounded before the add. Caller
// guarantees len(x) == len(y).
//
//go:noescape
func f64AxpyAVX(a float64, x, y []float64)

// f64AccumRowsAVX adds sum_k coef[k]*x[idx[k]*stride:][:len(acc)] into acc,
// k increasing, zero coefficients skipped; false if an idx[k] is not in
// [0, nrows). See F64AccumRows for the caller's side of the contract.
//
//go:noescape
func f64AccumRowsAVX(coef []float64, idx []int32, x []float64, nrows, stride int, acc []float64) bool
