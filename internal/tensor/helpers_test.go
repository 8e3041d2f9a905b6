package tensor

import (
	"fmt"

	"scalegnn/internal/par"
)

// Test-only constructors and products: the program builds matrices with
// FromSlice and multiplies them with MatMulInto, and these stay here as
// the tests' conveniences and reference.

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows[T Elem](rows [][]T) *Mat[T] {
	if len(rows) == 0 {
		return NewOf[T](0, 0)
	}
	cols := len(rows[0])
	m := NewOf[T](len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: FromRows row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// MatVec returns a*x for a vector x of length a.Cols.
func MatVec[T Elem](a *Mat[T], x []T) []T {
	out := make([]T, a.Rows)
	matVecInto(a, x, out)
	return out
}

// matVecInto computes a*x into dst (length a.Rows), overwriting it. dst must
// not alias x.
func matVecInto[T Elem](a *Mat[T], x, dst []T) {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("tensor: MatVec dim mismatch %dx%d * %d", a.Rows, a.Cols, len(x)))
	}
	if len(dst) != a.Rows {
		panic(fmt.Sprintf("tensor: matVecInto dst len %d, want %d", len(dst), a.Rows))
	}
	if Overlaps(dst, x) || Overlaps(dst, a.Data) {
		panic("tensor: matVecInto dst aliases an operand")
	}
	par.Range(a.Rows, minChunkDense, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a.Row(i)
			var s T
			for j, v := range row {
				s += v * x[j]
			}
			dst[i] = s
		}
	})
}
