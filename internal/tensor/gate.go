package tensor

import (
	"math"
	"unsafe"
)

// This file holds the select behind the element-wise gates of training
// (ReLU, dropout). A gate keeps a value or writes +0, and at a drop rate
// near one half which one is a coin flip, so a branch on it mispredicts
// about every other element. Gate instead ANDs the value's bits with a
// mask made from a 0/1 keep bit: the loops below branch on neither the data
// nor the mask, and their outputs are the bits the branching loops wrote.

// Gate returns v when keep is 1 and +0 when keep is 0. keep must be 0 or 1.
func Gate[T Elem](v T, keep uint8) T {
	if unsafe.Sizeof(v) == 8 {
		*(*uint64)(unsafe.Pointer(&v)) &= -uint64(keep)
	} else {
		*(*uint32)(unsafe.Pointer(&v)) &= -uint32(keep)
	}
	return v
}

// positive returns 1 when v > 0 and 0 otherwise, NaN included. As a signed
// integer, a float64's bits lie in [1, bits(+Inf)] exactly when the value
// is positive; b−1 is negative below that interval (−0's bits, the
// smallest int64, wrap instead, but then bits(+Inf)−b does too) and
// bits(+Inf)−b above it, so the sign bit of their OR is the negated answer.
// Widening a float32 keeps its sign, zero, infinity and NaN-ness.
func positive[T Elem](v T) uint8 {
	b := int64(math.Float64bits(float64(v)))
	return uint8(1 ^ uint64((b-1)|(0x7FF0000000000000-b))>>63)
}

// ReLUInto writes src's ReLU into dst: v where v > 0 and +0 elsewhere (NaN
// included). When keep is non-nil it also records each keep bit there.
// dst may be src; dst and keep must be at least as long as src.
func ReLUInto[T Elem](dst, src []T, keep []uint8) {
	dst = dst[:len(src)]
	if keep == nil {
		for i, v := range src {
			dst[i] = Gate(v, positive(v))
		}
		return
	}
	keep = keep[:len(src)]
	for i, v := range src {
		k := positive(v)
		dst[i] = Gate(v, k)
		keep[i] = k
	}
}

// GateInto writes Gate(src[i], keep[i]) into dst[i]. dst may be src; dst
// and keep must be at least as long as src.
func GateInto[T Elem](dst, src []T, keep []uint8) {
	dst, keep = dst[:len(src)], keep[:len(src)]
	for i, v := range src {
		dst[i] = Gate(v, keep[i])
	}
}
