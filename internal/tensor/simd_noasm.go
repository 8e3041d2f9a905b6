//go:build !amd64

package tensor

// simdOn is false off amd64: there are no vector kernels, so every kernel
// runs its plain-Go body. Declared as a var (not a const) so the
// dispatch code reads identically on both build variants.
var simdOn = false

func f32AxpyAVX(a float32, x, y []float32) { panic("tensor: no SIMD on this arch") }
func f32Gemm4x16AVX(k int, a []float32, lda, ka int, b []float32, ldb int, c []float32, ldc, panels int, fresh bool) {
	panic("tensor: no SIMD on this arch")
}
func f64Gemm4x8AVX(k int, a []float64, lda, ka int, b []float64, ldb int, c []float64, ldc, panels int, fresh bool) bool {
	panic("tensor: no SIMD on this arch")
}
func f64AccumRowsAVX(coef []float64, idx []int32, x []float64, nrows, stride int, acc []float64) bool {
	panic("tensor: no SIMD on this arch")
}
