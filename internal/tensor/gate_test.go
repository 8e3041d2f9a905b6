package tensor

import (
	"math"
	"testing"

	"scalegnn/internal/par"
)

// The oracle: GraphSAGE's ReLU loops as they were written before they
// became calls to ReLUInto and GateInto — in place, chunked over par,
// branching on every value and mask entry.

func oracleSageForward[T Elem](y []T, training bool) (mask []bool) {
	if training {
		mask = make([]bool, len(y))
	}
	par.Range(len(y), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pos := y[i] > 0
			if !pos {
				y[i] = 0
			}
			if training {
				mask[i] = pos
			}
		}
	})
	return mask
}

func oracleSageBackward[T Elem](gradOut []T, mask []bool) []T {
	g := append([]T(nil), gradOut...)
	par.Range(len(g), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !mask[i] {
				g[i] = 0
			}
		}
	})
	return g
}

// gateTestInput returns n standard-normal values with the bit patterns the
// gates must pass or zero exactly spread among them: quiet and signalling
// NaNs of both signs, ±0, ±Inf, subnormals and the largest finite values.
func gateTestInput[T Elem](n int, seed uint64) []T {
	specials := []T{}
	switch s := any(&specials).(type) {
	case *[]float64:
		for _, b := range []uint64{0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF4000000000000,
			0, 1 << 63, 0x7FF0000000000000, 0xFFF0000000000000,
			1, 0x800FFFFFFFFFFFFF, 0x0000F00000000000, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF} {
			*s = append(*s, math.Float64frombits(b))
		}
	case *[]float32:
		for _, b := range []uint32{0x7FC00000, 0xFFC00000, 0x7F800001, 0xFFA00000,
			0, 1 << 31, 0x7F800000, 0xFF800000,
			1, 0x807FFFFF, 0x00054000, 0x7F7FFFFF, 0xFF7FFFFF} {
			*s = append(*s, math.Float32frombits(b))
		}
	}
	rng := NewRand(seed)
	x := make([]T, n)
	for i := range x {
		if i%5 == 0 {
			x[i] = specials[(i/5)%len(specials)]
		} else {
			x[i] = T(rng.NormFloat64())
		}
	}
	return x
}

// identicalBits is bit equality, NaN payloads included: a gate moves bits
// and does no arithmetic.
func identicalBits[T Elem](a, b T) bool {
	if a32, ok := any(a).(float32); ok {
		return math.Float32bits(a32) == math.Float32bits(any(b).(float32))
	}
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

func TestReLUIntoMatchesSageOracle(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testSageOracle[float64](t) })
	t.Run("float32", func(t *testing.T) { testSageOracle[float32](t) })
}

func testSageOracle[T Elem](t *testing.T) {
	const n = 3*4096 + 77 // several par chunks and a ragged tail
	x := gateTestInput[T](n, 5)
	gradOut := gateTestInput[T](n, 6)
	for _, training := range []bool{false, true} {
		want := append([]T(nil), x...)
		wantMask := oracleSageForward(want, training)
		got := append([]T(nil), x...)
		var keep []uint8
		if training {
			keep = make([]uint8, n)
		}
		ReLUInto(got, got, keep)
		for i := range want {
			if !identicalBits(got[i], want[i]) {
				t.Fatalf("training=%v: forward[%d] = %v, want %v", training, i, got[i], want[i])
			}
			if training && (keep[i] == 1) != wantMask[i] {
				t.Fatalf("keep[%d] = %d, want %v", i, keep[i], wantMask[i])
			}
		}
		if !training {
			continue
		}
		wantG := oracleSageBackward(gradOut, wantMask)
		g := append([]T(nil), gradOut...)
		GateInto(g, g, keep)
		for i := range wantG {
			if !identicalBits(g[i], wantG[i]) {
				t.Fatalf("backward[%d] = %v, want %v", i, g[i], wantG[i])
			}
		}
	}
}
