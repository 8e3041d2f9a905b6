//go:build !amd64

package tensor

// simdOn is false off amd64: there are no vector kernels, so every tier
// runs the portable scalar loops. Declared as a var (not a const) so the
// dispatch code reads identically on both build variants.
var simdOn = false

func f32AxpyAVX(a float32, x, y []float32) { panic("tensor: no SIMD on this arch") }
func f32Gemm4x16AVX(k int, a []float32, lda, ka int, b []float32, ldb int, c []float32, ldc int) {
	panic("tensor: no SIMD on this arch")
}
func f64AxpyAVX(a float64, x, y []float64) { panic("tensor: no SIMD on this arch") }
func f64AccumRowsAVX(coef []float64, idx []int32, x []float64, nrows, stride int, acc []float64) bool {
	panic("tensor: no SIMD on this arch")
}
