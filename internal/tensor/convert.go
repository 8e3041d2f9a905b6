package tensor

// This file holds the dtype boundary: datasets, checkpoints, and the
// serving API stay float64, while the raw-speed tier computes in float32.
// Conversions are explicit one-time copies at those boundaries — never
// silent per-element casts inside kernels.

// FromFloat64 views a float64 matrix as a Mat[T]. For T = float64 it
// returns src itself (zero copy, shared storage); for float32 it returns a
// freshly narrowed copy. Callers on the float32 path own the copy and may
// mutate it freely; callers on the float64 path must treat the result as a
// view of src.
func FromFloat64[T Elem](src *Matrix) *Mat[T] {
	if m, ok := any(src).(*Mat[T]); ok {
		return m
	}
	out := NewOf[T](src.Rows, src.Cols)
	for i, v := range src.Data {
		out.Data[i] = T(v)
	}
	return out
}

// WidenInto widens src into the float64 dst (same shape). For T = float64
// this is a plain copy.
func WidenInto[T Elem](src *Mat[T], dst *Matrix) {
	if src.Rows != dst.Rows || src.Cols != dst.Cols {
		panic("tensor: WidenInto shape mismatch")
	}
	if m, ok := any(src).(*Matrix); ok {
		if m == dst {
			return
		}
		if Overlaps(m.Data, dst.Data) {
			panic("tensor: WidenInto dst aliases src")
		}
		copy(dst.Data, m.Data)
		return
	}
	for i, v := range src.Data {
		dst.Data[i] = float64(v)
	}
}
