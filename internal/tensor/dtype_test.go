package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
)

// randMatPair returns the same random matrix at both tiers: float64
// reference values, narrowed to float32.
func randMatPair(rng *rand.Rand, rows, cols int) (*Matrix, *Mat[float32]) {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64() - 0.5
	}
	return m, FromFloat64[float32](m)
}

// maxRelDiff returns max_i |a32[i] - a64[i]| / max(1, |a64[i]|).
func maxRelDiff(a64 []float64, a32 []float32) float64 {
	worst := 0.0
	for i, v := range a64 {
		scale := math.Abs(v)
		if scale < 1 {
			scale = 1
		}
		if d := math.Abs(float64(a32[i])-v) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// TestKernelParityFloat32 checks every dense kernel at float32 against the
// float64 reference with a per-op tolerance sized to the accumulation
// length: k-long sums (matmuls, dot) accumulate rounding roughly with
// sqrt(k)·eps32, element-wise ops stay within a few ulps. Sizes are odd on
// purpose so the 8-wide tiles, 4-wide unrolls, and scalar tails all run;
// k > mmBlockK exercises the cache-blocking seam.
func TestKernelParityFloat32(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	cases := []struct{ m, k, n int }{
		{37, 101, 53},
		{16, 300, 24}, // k crosses the mmBlockK boundary
		{5, 33, 3},    // n < 8: pure scalar remainder columns
		{1, 1, 1},
	}
	for _, c := range cases {
		a64, a32 := randMatPair(rng, c.m, c.k)
		b64, b32 := randMatPair(rng, c.k, c.n)
		bt64, bt32 := randMatPair(rng, c.n, c.k)
		w64, w32 := randMatPair(rng, c.m, c.n)

		const sumTol = 2e-5 // k-long accumulations
		const elemTol = 1e-6

		got64 := MatMul(a64, b64)
		got32 := MatMul(a32, b32)
		if d := maxRelDiff(got64.Data, got32.Data); d > sumTol {
			t.Errorf("MatMul %dx%dx%d: rel diff %g > %g", c.m, c.k, c.n, d, sumTol)
		}

		gt64 := MatMulT(a64, bt64)
		gt32 := MatMulT(a32, bt32)
		if d := maxRelDiff(gt64.Data, gt32.Data); d > sumTol {
			t.Errorf("MatMulT %dx%dx%d: rel diff %g > %g", c.m, c.k, c.n, d, sumTol)
		}

		tm64 := TMatMul(a64, w64)
		tm32 := TMatMul(a32, w32)
		if d := maxRelDiff(tm64.Data, tm32.Data); d > sumTol {
			t.Errorf("TMatMul %dx%dx%d: rel diff %g > %g", c.m, c.k, c.n, d, sumTol)
		}

		x64 := make([]float64, c.k)
		x32 := make([]float32, c.k)
		for i := range x64 {
			x64[i] = rng.Float64() - 0.5
			x32[i] = float32(x64[i])
		}
		mv64 := MatVec(a64, x64)
		mv32 := MatVec(a32, x32)
		if d := maxRelDiff(mv64, mv32); d > sumTol {
			t.Errorf("MatVec %dx%d: rel diff %g > %g", c.m, c.k, d, sumTol)
		}

		s64 := a64.Clone()
		s32 := a32.Clone()
		s64.AddScaled(0.37, a64)
		s32.AddScaled(0.37, a32)
		if d := maxRelDiff(s64.Data, s32.Data); d > elemTol {
			t.Errorf("AddScaled %dx%d: rel diff %g > %g", c.m, c.k, d, elemTol)
		}
	}
}

// TestSIMDMatchesScalarFloat32 compares the vectorized float32 kernels
// against the portable scalar loops on the same inputs. The vector kernels
// may reassociate k-sums (partial accumulators), so the comparison is
// tolerance-based, but much tighter than the cross-dtype parity: both
// paths compute in float32.
func TestSIMDMatchesScalarFloat32(t *testing.T) {
	if !FastF32() {
		t.Skip("no vectorized float32 kernels on this machine")
	}
	restore := func() { simdOn = true }
	defer restore()

	rng := rand.New(rand.NewPCG(23, 29))
	for _, c := range []struct{ m, k, n int }{{37, 301, 53}, {8, 8, 8}, {3, 5, 2}} {
		_, a := randMatPair(rng, c.m, c.k)
		_, b := randMatPair(rng, c.k, c.n)
		_, bt := randMatPair(rng, c.n, c.k)
		_, w := randMatPair(rng, c.m, c.n)

		simdOn = true
		mmV := MatMul(a, b)
		mtV := MatMulT(a, bt)
		tmV := TMatMul(a, w)
		addV := a.Clone()
		addV.AddScaled(1.5, a)

		simdOn = false
		mmS := MatMul(a, b)
		mtS := MatMulT(a, bt)
		tmS := TMatMul(a, w)
		addS := a.Clone()
		addS.AddScaled(1.5, a)
		restore()

		const tol = 1e-5
		check := func(name string, v, s *Mat[float32]) {
			t.Helper()
			for i := range s.Data {
				ref := float64(s.Data[i])
				scale := math.Abs(ref)
				if scale < 1 {
					scale = 1
				}
				if math.Abs(float64(v.Data[i])-ref)/scale > tol {
					t.Fatalf("%s %dx%dx%d: simd %v != scalar %v at %d",
						name, c.m, c.k, c.n, v.Data[i], s.Data[i], i)
				}
			}
		}
		check("MatMul", mmV, mmS)
		check("MatMulT", mtV, mtS)
		check("TMatMul", tmV, tmS)
		check("AddScaled", addV, addS)
	}
}

// TestF32AxpyTails exercises every unroll width of the axpy kernel
// (16-wide, 8-wide, scalar tail) including the empty slice.
func TestF32AxpyTails(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 15, 16, 17, 31, 33} {
		x := make([]float32, n)
		y := make([]float32, n)
		want := make([]float32, n)
		for i := range x {
			x[i] = float32(i)*0.25 - 1
			y[i] = float32(n - i)
			want[i] = y[i] + 0.5*x[i]
		}
		f32Axpy(0.5, x, y)
		for i := range y {
			if math.Abs(float64(y[i]-want[i])) > 1e-6 {
				t.Fatalf("n=%d: y[%d] = %v, want %v", n, i, y[i], want[i])
			}
		}
	}
}

// TestBitsRoundTrip: AppendBits writes little-endian IEEE-754 bits at
// DtypeOf[T]().Size() bytes per element, and FromBits restores every value
// bit for bit — signed zeros, infinities, denormals and NaN payloads too.
func TestBitsRoundTrip(t *testing.T) {
	bitsRoundTrip(t, []float64{1.5, math.Copysign(0, -1), math.Inf(-1), 5e-324,
		math.Float64frombits(0x7ff8000000000123)}, []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x3f})
	bitsRoundTrip(t, []float32{1.5, float32(math.Copysign(0, -1)), float32(math.Inf(1)),
		math.Float32frombits(1), math.Float32frombits(0x7fc00123)}, []byte{0, 0, 0xc0, 0x3f})
}

func bitsRoundTrip[T Elem](t *testing.T, v []T, first []byte) {
	t.Helper()
	prefix := []byte{0xaa}
	enc := AppendBits(prefix, v)
	if len(enc) != 1+len(v)*DtypeOf[T]().Size() || enc[0] != 0xaa || string(enc[1:1+len(first)]) != string(first) {
		t.Fatalf("%s: AppendBits wrote %x", DtypeOf[T](), enc)
	}
	got := make([]T, len(v))
	FromBits(got, enc[1:])
	if string(AppendBits(nil, got)) != string(enc[1:]) {
		t.Fatalf("%s: FromBits(AppendBits(v)) = %v, want %v bit for bit", DtypeOf[T](), got, v)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: FromBits accepted a short source", DtypeOf[T]())
		}
	}()
	FromBits(got, enc[2:])
}
