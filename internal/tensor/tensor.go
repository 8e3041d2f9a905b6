// Package tensor provides dense matrices and vectors used as the numeric
// substrate for all neural-network and graph-propagation code in scalegnn.
// It is deliberately small: row-major dense matrices over a generic element
// type (float32 for the raw-speed tier, float64 for the reference path), the
// BLAS-1/2/3 style kernels the GNN models need, and nothing else. Heavy
// kernels (matrix-matrix multiply, matrix transpose multiply) are
// parallelized across goroutines with deterministic work partitioning and
// register-blocked inner loops.
//
// The float64 kernels are bitwise-stable: for finite inputs every output
// element is accumulated in strictly increasing k order with a single
// accumulator, so blocking and unrolling never reassociate a sum. Changing
// tile sizes must preserve that invariant — it is what keeps checkpoints,
// fingerprints, and distributed replicas exactly reproducible.
package tensor

import (
	"fmt"
	"math"
)

// Elem is the set of element types the tensor stack supports: float64 for
// the bitwise-reproducible reference path and float32 for the raw-speed
// tier (half the memory traffic in the bandwidth-bound aggregation phase).
type Elem interface {
	float32 | float64
}

// Mat is a dense, row-major matrix of T values.
//
// The zero value is an empty matrix. Data is laid out so that element (i, j)
// lives at Data[i*Cols+j]; rows are therefore contiguous, which matches the
// access pattern of per-node feature operations in GNNs.
type Mat[T Elem] struct {
	Rows, Cols int
	Data       []T
}

// Matrix is the float64 instantiation — the historical element type and the
// one every fingerprinted code path uses.
type Matrix = Mat[float64]

// New returns a zero-initialized float64 matrix with the given shape.
// It panics if either dimension is negative.
func New(rows, cols int) *Matrix { return NewOf[float64](rows, cols) }

// NewOf returns a zero-initialized rows x cols matrix of the given element
// type. It panics if either dimension is negative.
func NewOf[T Elem](rows, cols int) *Mat[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Mat[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// FromSlice wraps an existing flat slice as a rows x cols matrix.
// The slice is used directly (not copied); len(data) must equal rows*cols.
func FromSlice[T Elem](rows, cols int, data []T) *Mat[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Mat[T]{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Mat[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Mat[T]) Row(i int) []T { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat[T]) Clone() *Mat[T] {
	out := NewOf[T](m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// SameShape reports whether m and other have identical dimensions.
func (m *Mat[T]) SameShape(other *Mat[T]) bool {
	return m.Rows == other.Rows && m.Cols == other.Cols
}

// Zero resets all entries to 0 in place.
func (m *Mat[T]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every entry to v in place.
func (m *Mat[T]) Fill(v T) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// T returns the transpose of m as a new matrix.
func (m *Mat[T]) T() *Mat[T] {
	out := NewOf[T](m.Cols, m.Rows)
	transposeInto(m, out)
	return out
}

// transposeInto writes mᵀ into dst, which is m.Cols x m.Rows. It reads
// eight source rows at a time, so each source column lands as eight
// adjacent dst elements (one float64 cache line) instead of eight stores
// a column stride apart; the remainder rows go one at a time.
func transposeInto[T Elem](m, dst *Mat[T]) {
	r := m.Rows
	i := 0
	for ; i+8 <= r; i += 8 {
		r0, r1, r2, r3 := m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
		r4, r5, r6, r7 := m.Row(i+4), m.Row(i+5), m.Row(i+6), m.Row(i+7)
		for j, v := range r0 {
			d := dst.Data[j*r+i : j*r+i+8]
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = v, r1[j], r2[j], r3[j], r4[j], r5[j], r6[j], r7[j]
		}
	}
	for ; i < r; i++ {
		for j, v := range m.Row(i) {
			dst.Data[j*r+i] = v
		}
	}
}

// Add computes m += other element-wise.
func (m *Mat[T]) Add(other *Mat[T]) {
	mustSameShape("Add", m, other)
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// Sub computes m -= other element-wise.
func (m *Mat[T]) Sub(other *Mat[T]) {
	mustSameShape("Sub", m, other)
	for i, v := range other.Data {
		m.Data[i] -= v
	}
}

// Scale multiplies every entry by s in place.
func (m *Mat[T]) Scale(s T) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled computes m += s*other element-wise through Axpy.
func (m *Mat[T]) AddScaled(s T, other *Mat[T]) {
	mustSameShape("AddScaled", m, other)
	Axpy(s, other.Data, m.Data)
}

// AddRowsTo adds the sum of m's rows into dst (length Cols), row after row
// — the bias gradient of a dense layer.
func (m *Mat[T]) AddRowsTo(dst []T) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowsTo len %d != cols %d", len(dst), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			dst[j] += v
		}
	}
}

// AddRowVector adds vector v (length Cols) to every row of m.
func (m *Mat[T]) AddRowVector(v []T) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector len %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// Apply replaces every entry x with f(x) in place.
func (m *Mat[T]) Apply(f func(T) T) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// MaxAbs returns the largest absolute entry, or 0 for an empty matrix.
func (m *Mat[T]) MaxAbs() T {
	var max T
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v > max {
			max = v
		}
	}
	return max
}

// Sum returns the sum of all entries.
func (m *Mat[T]) Sum() T {
	var s T
	for _, v := range m.Data {
		s += v
	}
	return s
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Mat[T]) FrobeniusNorm() T {
	var s T
	for _, v := range m.Data {
		s += T(v * v)
	}
	return T(math.Sqrt(float64(s)))
}

// SelectRows gathers the given rows of m into a new matrix, one output row
// per index, in order. Indices may repeat.
func (m *Mat[T]) SelectRows(idx []int) *Mat[T] {
	out := NewOf[T](len(idx), m.Cols)
	m.SelectRowsInto(idx, out)
	return out
}

// SelectRowsInto gathers the given rows of m into dst (shape len(idx) x
// m.Cols), overwriting it. dst must not alias m.
func (m *Mat[T]) SelectRowsInto(idx []int, dst *Mat[T]) {
	if dst.Rows != len(idx) || dst.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: SelectRowsInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, len(idx), m.Cols))
	}
	if Overlaps(dst.Data, m.Data) {
		panic("tensor: SelectRowsInto dst aliases m")
	}
	for i, r := range idx {
		copy(dst.Row(i), m.Row(r))
	}
}

// ScatterAddRows adds each row of src into row idx[i] of m. It is the adjoint
// of SelectRows and is used to backpropagate through row gathering.
func (m *Mat[T]) ScatterAddRows(idx []int, src *Mat[T]) {
	if len(idx) != src.Rows || m.Cols != src.Cols {
		panic("tensor: ScatterAddRows shape mismatch")
	}
	for i, r := range idx {
		dst := m.Row(r)
		for j, v := range src.Row(i) {
			dst[j] += v
		}
	}
}

// Equal reports whether m and other are identical in shape and, entry-wise,
// differ by at most tol in absolute value.
func (m *Mat[T]) Equal(other *Mat[T], tol float64) bool {
	if !m.SameShape(other) {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(float64(v)-float64(other.Data[i])) > tol {
			return false
		}
	}
	return true
}

func mustSameShape[T Elem](op string, a, b *Mat[T]) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// minChunkDense is the minimum rows per worker for the dense kernels,
// passed to the shared partitioner in internal/par.
const minChunkDense = 64

// mmBlockK is the longest k-tile of the dense products: a tile of b spanning
// at most mmBlockK rows is swept by every 4-row block before the driver
// advances, bounding the working set regardless of how tall b is.
// Accumulation still visits k in strictly increasing order per output
// element, so tiling never perturbs float64 results.
const mmBlockK = 256

// mustNotAlias panics if dst shares backing memory with any operand — the
// in-place kernels read operands while writing dst, so aliasing (including
// overlapping FromSlice views) would silently corrupt the output.
func mustNotAlias[T Elem](op string, dst *Mat[T], operands ...*Mat[T]) {
	for _, o := range operands {
		if Overlaps(dst.Data, o.Data) {
			panic(fmt.Sprintf("tensor: %s dst aliases an operand", op))
		}
	}
}

// MatMul returns a*b, parallelized over row blocks of a. Panics if inner
// dimensions disagree.
func MatMul[T Elem](a, b *Mat[T]) *Mat[T] {
	out := NewOf[T](a.Rows, b.Cols)
	MatMulInto(a, b, out)
	return out
}

// MatMulInto computes a*b into dst (shape a.Rows x b.Cols), overwriting it.
// dst must not alias a or b. This is the zero-allocation form used by the
// pooled training hot path. Both tiers run on gemm; simd.go states each
// tier's bit contract.
func MatMulInto[T Elem](a, b, dst *Mat[T]) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	mustNotAlias("MatMulInto", dst, a, b)
	gemm(a.Data, a.Cols, 1, b, dst, minChunkDense)
}

// MatMulT returns a * bᵀ. It is used for gradient computations where the
// transposed operand is the natural layout.
func MatMulT[T Elem](a, b *Mat[T]) *Mat[T] {
	out := NewOf[T](a.Rows, b.Rows)
	MatMulTInto(a, b, out)
	return out
}

// MatMulTInto computes a * bᵀ into dst (shape a.Rows x b.Rows), overwriting
// it. dst must not alias a or b. bᵀ is written into a pooled matrix and
// multiplied by MatMulInto, so a·bᵀ has the bits of a·(bᵀ) on either tier.
func MatMulTInto[T Elem](a, b, dst *Mat[T]) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT inner dim mismatch %dx%d * (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	mustNotAlias("MatMulTInto", dst, a, b)
	bt := GetBufOf[T](b.Cols, b.Rows)
	transposeInto(b, bt)
	MatMulInto(a, bt, dst)
	PutBufOf(bt)
}

// TMatMul returns aᵀ * b, parallelized over rows of the output.
func TMatMul[T Elem](a, b *Mat[T]) *Mat[T] {
	out := NewOf[T](a.Cols, b.Cols)
	TMatMulInto(a, b, out)
	return out
}

// TMatMulInto computes aᵀ * b into dst (shape a.Cols x b.Cols), overwriting
// it. dst must not alias a or b. Output row i is column i of a times b, on
// gemm with a read in place; workers split the output rows by work, so a
// 64×5 weight gradient over thousands of rows still uses every core, and
// the bits are a·b's contract at any worker count.
func TMatMulInto[T Elem](a, b, dst *Mat[T]) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul inner dim mismatch (%dx%d)ᵀ * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: TMatMulInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	mustNotAlias("TMatMulInto", dst, a, b)
	rowWork := max(a.Rows*b.Cols, 1)
	gemm(a.Data, 1, a.Cols, b, dst, (minWorkTMatMul+rowWork-1)/rowWork)
}

// minWorkTMatMul is the least work, in multiply-adds, TMatMulInto hands one
// worker. Its output is a weight gradient, often 64 rows or fewer over a
// k of thousands, so a minimum in rows would leave it on one core.
const minWorkTMatMul = 1 << 16

// axpyUnrolled computes y += a*x with a 4-wide unrolled loop — the scalar
// axpy of both tiers. Elements are independent, so unrolling cannot
// reassociate any sum, and each product is rounded before its add.
func axpyUnrolled[T Elem](a T, x, y []T) {
	n := len(y)
	j := 0
	for ; j+4 <= n; j += 4 {
		xq := x[j : j+4 : j+4]
		yq := y[j : j+4 : j+4]
		yq[0] += T(a * xq[0])
		yq[1] += T(a * xq[1])
		yq[2] += T(a * xq[2])
		yq[3] += T(a * xq[3])
	}
	for ; j < n; j++ {
		y[j] += T(a * x[j])
	}
}

// Dot returns the dot product of equal-length vectors x and y.
func Dot[T Elem](x, y []T) T {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s T
	for i, v := range x {
		s += T(v * y[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2[T Elem](x []T) T { return T(math.Sqrt(float64(Dot(x, x)))) }

// Axpy computes y += a*x in place, the one axpy of both tiers. float64
// runs f64AccumRows with a single term, so a zero a leaves y as it was;
// float32 runs f32Axpy, which never skips.
func Axpy[T Elem](a T, x, y []T) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	switch y := any(y).(type) {
	case []float64:
		coef := [1]float64{float64(a)}
		f64AccumRows(coef[:], tileRows[:1], any(x).([]float64), 1, len(y), y)
	case []float32:
		f32Axpy(float32(a), any(x).([]float32), y)
	}
}

// ScaleVec multiplies every entry of x by a in place.
func ScaleVec[T Elem](a T, x []T) {
	for i := range x {
		x[i] *= a
	}
}

// Normalize scales x to unit Euclidean norm in place and returns its original
// norm. A zero vector is left unchanged.
func Normalize[T Elem](x []T) T {
	n := Norm2(x)
	if n == 0 {
		return 0
	}
	ScaleVec(1/n, x)
	return n
}
