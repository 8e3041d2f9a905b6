package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file holds the dtype boundaries. Datasets and the serving API stay
// float64 while the raw-speed tier computes in float32; conversions between
// them are explicit one-time copies, never silent per-element casts inside
// kernels. Checkpoint blocks and exchanged rows carry either tier as bytes:
// AppendBits and FromBits are the one place elements become bits and back,
// and DtypeOf the one place a type becomes its tag.

// Dtype tags an element type in the byte formats that carry tensors
// (checkpoint blocks, exchanged rows).
type Dtype uint8

// Element type tags.
const (
	Float64 Dtype = 0
	Float32 Dtype = 1
)

// DtypeOf returns T's tag.
func DtypeOf[T Elem]() Dtype {
	var z T
	if _, ok := any(z).(float32); ok {
		return Float32
	}
	return Float64
}

func (d Dtype) String() string {
	switch d {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("Dtype(%d)", uint8(d))
	}
}

// Size returns the bytes per element, or 0 for an unknown tag.
func (d Dtype) Size() int {
	switch d {
	case Float64:
		return 8
	case Float32:
		return 4
	default:
		return 0
	}
}

// AppendBits appends v to buf as little-endian IEEE-754 bit patterns,
// DtypeOf[T]().Size() bytes per element, so FromBits restores v bit for bit
// (NaN payloads included).
func AppendBits[T Elem](buf []byte, v []T) []byte {
	switch v := any(v).(type) {
	case []float64:
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	case []float32:
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
	}
	return buf
}

// FromBits decodes src, written by AppendBits, into dst. src must hold
// exactly len(dst) elements.
func FromBits[T Elem](dst []T, src []byte) {
	if len(src) != len(dst)*DtypeOf[T]().Size() {
		panic(fmt.Sprintf("tensor: FromBits has %d bytes for %d %s elements", len(src), len(dst), DtypeOf[T]()))
	}
	switch d := any(dst).(type) {
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case []float32:
		for i := range d {
			d[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
	}
}

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
