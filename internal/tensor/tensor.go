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

	"scalegnn/internal/par"
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
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
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

// AddScaled computes m += s*other element-wise.
func (m *Mat[T]) AddScaled(s T, other *Mat[T]) {
	mustSameShape("AddScaled", m, other)
	switch m := any(m).(type) {
	case *Mat[float32]:
		F32Axpy(float32(s), any(other).(*Mat[float32]).Data, m.Data)
	case *Matrix:
		F64Axpy(float64(s), any(other).(*Matrix).Data, m.Data)
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
		s += v * v
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

// mmBlockK is the k-tile of the matmul kernels: a tile of b spanning
// mmBlockK rows is consumed column-block by column-block before the kernel
// advances, bounding the streamed working set regardless of how tall b is.
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
// pooled training hot path.
//
// The kernel is register-blocked: each output row is produced in column
// tiles (8 scalar accumulators, or 32 columns in YMM registers when the
// float64 vector kernels are on) while k streams through a tile of b, so
// the inner loop has no load/store of dst. Per output element the sum
// still runs over k in increasing order with one accumulator and a
// separately rounded product — on float64 bitwise-equal to the naive ikj
// loop, vector or not. With the gate on, float32 runs on the 4×16 FMA
// block kernel instead (f32MatMul).
func MatMulInto[T Elem](a, b, dst *Mat[T]) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	mustNotAlias("MatMulInto", dst, a, b)
	if simdOn {
		switch a := any(a).(type) {
		case *Mat[float32]:
			f32MatMul(a, any(b).(*Mat[float32]), any(dst).(*Mat[float32]), false)
			return
		case *Matrix:
			matMulIntoF64(a, any(b).(*Matrix), any(dst).(*Matrix))
			return
		}
	}
	n := b.Cols
	par.Range(a.Rows, minChunkDense, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := dst.Row(i)
			clear(orow)
			for kb := 0; kb < len(arow); kb += mmBlockK {
				kend := min(kb+mmBlockK, len(arow))
				matMulTile(arow[kb:kend], b.Data[kb*n:kend*n], orow, n)
			}
		}
	})
}

// matMulIntoF64 is MatMulInto's float64 vector path: the same traversal on
// the float64 tile kernel, called statically so the closure captures no
// func value.
func matMulIntoF64(a, b, dst *Matrix) {
	n := b.Cols
	par.Range(a.Rows, minChunkDense, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := dst.Row(i)
			clear(orow)
			for kb := 0; kb < len(arow); kb += mmBlockK {
				kend := min(kb+mmBlockK, len(arow))
				matMulTileF64(arow[kb:kend], b.Data[kb*n:kend*n], orow, n)
			}
		}
	})
}

// matMulTile adds ablk · bblk into orow, where ablk is a k-tile of one row
// of a and bblk the matching rows of b — the scalar tile kernel, and the
// reference matMulTileF64 must equal bit for bit. Columns advance in tiles
// of 8 with the partial sums pinned in registers; zero a-entries are
// skipped, which both exploits ReLU sparsity and preserves the historical
// Inf/NaN behavior of the skip.
func matMulTile[T Elem](ablk, bblk []T, orow []T, n int) {
	j := 0
	for ; j+8 <= n; j += 8 {
		s0, s1, s2, s3 := orow[j], orow[j+1], orow[j+2], orow[j+3]
		s4, s5, s6, s7 := orow[j+4], orow[j+5], orow[j+6], orow[j+7]
		bo := j
		for _, av := range ablk {
			if av != 0 {
				brow := bblk[bo : bo+8 : bo+8]
				s0 += av * brow[0]
				s1 += av * brow[1]
				s2 += av * brow[2]
				s3 += av * brow[3]
				s4 += av * brow[4]
				s5 += av * brow[5]
				s6 += av * brow[6]
				s7 += av * brow[7]
			}
			bo += n
		}
		orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		orow[j+4], orow[j+5], orow[j+6], orow[j+7] = s4, s5, s6, s7
	}
	for ; j < n; j++ {
		s := orow[j]
		bo := j
		for _, av := range ablk {
			if av != 0 {
				s += av * bblk[bo]
			}
			bo += n
		}
		orow[j] = s
	}
}

// MatMulT returns a * bᵀ. It is used for gradient computations where the
// transposed operand is the natural layout.
func MatMulT[T Elem](a, b *Mat[T]) *Mat[T] {
	out := NewOf[T](a.Rows, b.Rows)
	MatMulTInto(a, b, out)
	return out
}

// MatMulTInto computes a * bᵀ into dst (shape a.Rows x b.Rows), overwriting
// it. dst must not alias a or b.
//
// Four output columns (rows of b) are produced per pass so each element of
// arow is loaded once per four dot products; every dot product keeps its own
// single accumulator running over k in increasing order, so float64 results
// are bitwise-equal to the naive per-column loop. float64 has no vector
// kernel here: a dot product vectorizes only by splitting its k-sum, which
// the float64 tier forbids. With the gate on, float32 runs on the 4×16
// FMA block kernel over packed panels of bᵀ (f32MatMul).
func MatMulTInto[T Elem](a, b, dst *Mat[T]) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT inner dim mismatch %dx%d * (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	mustNotAlias("MatMulTInto", dst, a, b)
	if simdOn {
		if fa, ok := any(a).(*Mat[float32]); ok {
			f32MatMul(fa, any(b).(*Mat[float32]), any(dst).(*Mat[float32]), true)
			return
		}
	}
	par.Range(a.Rows, minChunkDense, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := dst.Row(i)
			j := 0
			for ; j+4 <= b.Rows; j += 4 {
				b0, b1, b2, b3 := b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3)
				var s0, s1, s2, s3 T
				for k, av := range arow {
					s0 += av * b0[k]
					s1 += av * b1[k]
					s2 += av * b2[k]
					s3 += av * b3[k]
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			}
			for ; j < b.Rows; j++ {
				brow := b.Row(j)
				var s T
				for k, av := range arow {
					s += av * brow[k]
				}
				orow[j] = s
			}
		}
	})
}

// TMatMul returns aᵀ * b, parallelized over rows of the output.
func TMatMul[T Elem](a, b *Mat[T]) *Mat[T] {
	out := NewOf[T](a.Cols, b.Cols)
	TMatMulInto(a, b, out)
	return out
}

// TMatMulInto computes aᵀ * b into dst (shape a.Cols x b.Cols), overwriting
// it. dst must not alias a or b.
//
// Output row i is column i of a times b. On float64 (tMatMulIntoF64) it
// runs on MatMulInto's k-tile, and workers split the output rows by work,
// so a 64×5 weight gradient over thousands of rows still uses every core.
// Each element sums over k in increasing order with one accumulator, so
// the bits are the naive loop's at any worker count. On float32 with the
// gate on it runs on the 4×16 FMA block kernel, split the same way
// (f32TMatMul); with the gate off k runs outermost and each output row
// takes an axpy per k, split by rows.
func TMatMulInto[T Elem](a, b, dst *Mat[T]) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul inner dim mismatch (%dx%d)ᵀ * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: TMatMulInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	mustNotAlias("TMatMulInto", dst, a, b)
	if fa, ok := any(a).(*Matrix); ok {
		tMatMulIntoF64(fa, any(b).(*Matrix), any(dst).(*Matrix))
		return
	}
	if simdOn {
		f32TMatMul(any(a).(*Mat[float32]), any(b).(*Mat[float32]), any(dst).(*Mat[float32]))
		return
	}
	dst.Zero()
	par.Range(a.Cols, minChunkDense, func(lo, hi int) {
		for k := 0; k < a.Rows; k++ {
			arow := a.Row(k)
			brow := b.Row(k)
			for i := lo; i < hi; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				axpyUnrolled(av, brow, dst.Row(i))
			}
		}
	})
}

// minWorkTMatMul is the least work, in multiply-adds, TMatMulInto hands one
// worker. Its output is a weight gradient, often 64 rows or fewer over a
// k of thousands, so a minimum in rows would leave it on one core.
const minWorkTMatMul = 1 << 16

// tmBlockI is how many columns of a tMatMulIntoF64 gathers from one k-tile
// at a time: eight float64s, one cache line of each row of a.
const tmBlockI = 8

// tmTileFloats bounds the k-tile of b that tMatMulIntoF64 rereads for every
// output row: 2 048 float64s, 16 KiB, so it stays in the L1 data cache.
const tmTileFloats = 2048

// tMatMulIntoF64 is the float64 aᵀ·b kernel. Per k-tile, tmBlockI columns of
// a are gathered into stack scratch, and each is handed with the tile of b
// to MatMulInto's tile kernel, which adds Σ_k a[k][i]·b[k][:] into output
// row i in increasing k, skipping zero a[k][i]. Workers split the output
// rows by work, at least minWorkTMatMul each.
func tMatMulIntoF64(a, b, dst *Matrix) {
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
					// Static calls: through a func value cols would
					// escape to the heap.
					if simdOn {
						matMulTileF64(cols[c][:kn], bblk, dst.Row(i0+c), n)
					} else {
						matMulTile(cols[c][:kn], bblk, dst.Row(i0+c), n)
					}
				}
			}
		}
	})
}

// axpyUnrolled computes y += a*x with a 4-wide unrolled loop — the scalar
// axpy of both tiers. Elements are independent, so unrolling cannot
// reassociate any sum.
func axpyUnrolled[T Elem](a T, x, y []T) {
	n := len(y)
	j := 0
	for ; j+4 <= n; j += 4 {
		xq := x[j : j+4 : j+4]
		yq := y[j : j+4 : j+4]
		yq[0] += a * xq[0]
		yq[1] += a * xq[1]
		yq[2] += a * xq[2]
		yq[3] += a * xq[3]
	}
	for ; j < n; j++ {
		y[j] += a * x[j]
	}
}

// Dot returns the dot product of equal-length vectors x and y.
func Dot[T Elem](x, y []T) T {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s T
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2[T Elem](x []T) T { return T(math.Sqrt(float64(Dot(x, x)))) }

// Axpy computes y += a*x in place.
func Axpy[T Elem](a T, x, y []T) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
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
