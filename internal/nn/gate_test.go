package nn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"scalegnn/internal/par"
	"scalegnn/internal/tensor"
)

// The oracle: ReLUOf's and DropoutOf's loops as they were written before
// their gates became bit selects, branching on every value and coin flip.
// The layers must reproduce them bit for bit, masks and RNG stream included.

func oracleReLUForward[T tensor.Elem](x []T) (y []T, mask []bool) {
	y = append([]T(nil), x...)
	mask = make([]bool, len(y))
	for i, v := range y {
		pos := v > 0
		if !pos {
			y[i] = 0
		}
		mask[i] = pos
	}
	return y, mask
}

func oracleReLUBackward[T tensor.Elem](gradOut []T, mask []bool) []T {
	g := append([]T(nil), gradOut...)
	for i := range g {
		if !mask[i] {
			g[i] = 0
		}
	}
	return g
}

func oracleDropoutForward[T tensor.Elem](x []T, p float64, rng *rand.Rand) (y []T, keep []bool) {
	y = append([]T(nil), x...)
	keep = make([]bool, len(y))
	scale := T(1 / (1 - p))
	for i := range y {
		if rng.Float64() < p {
			y[i] = 0
			keep[i] = false
		} else {
			y[i] *= scale
			keep[i] = true
		}
	}
	return y, keep
}

func oracleDropoutBackward[T tensor.Elem](gradOut []T, keep []bool, p float64) []T {
	g := append([]T(nil), gradOut...)
	scale := T(1 / (1 - p))
	for i := range g {
		if keep[i] {
			g[i] *= scale
		} else {
			g[i] = 0
		}
	}
	return g
}

// gateInputs returns n standard-normal values with the special values
// spread among them: quiet and signalling NaNs of both signs, ±0, ±Inf,
// subnormals and the largest finite values of T.
func gateInputs[T tensor.Elem](n int, rng *rand.Rand) []T {
	var specials []T
	switch s := any(&specials).(type) {
	case *[]float64:
		*s = []float64{math.NaN(), math.Copysign(math.NaN(), -1),
			math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF4000000000000),
			0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			math.Float64frombits(1), math.Float64frombits(0x800FFFFFFFFFFFFF), 5e-310,
			math.MaxFloat64, -math.MaxFloat64}
	case *[]float32:
		*s = []float32{float32(math.NaN()), -float32(math.NaN()),
			math.Float32frombits(0x7F800001), math.Float32frombits(0xFFA00000),
			0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
			math.Float32frombits(1), math.Float32frombits(0x807FFFFF), 5e-40,
			math.MaxFloat32, -math.MaxFloat32}
	}
	x := make([]T, n)
	for i := range x {
		if i%7 == 0 {
			x[i] = specials[(i/7)%len(specials)]
		} else {
			x[i] = T(rng.NormFloat64())
		}
	}
	return x
}

// requireSameBits fails unless got and want hold the same bit patterns.
func requireSameBits[T tensor.Elem](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], bitsOf(got[i]), want[i], bitsOf(want[i]))
		}
	}
}

func bitsOf[T tensor.Elem](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

func requireSameMask(t *testing.T, what string, got []uint8, want []bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keep bits, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != 0 && got[i] != 1 || (got[i] == 1) != want[i] {
			t.Fatalf("%s[%d] = %d, want %v", what, i, got[i], want[i])
		}
	}
}

// edgeSource replays vals, then continues with next: it puts draws on and
// around a dropout threshold, where a random stream almost never lands.
type edgeSource struct {
	vals []uint64
	next rand.Source
}

func (s *edgeSource) Uint64() uint64 {
	if len(s.vals) == 0 {
		return s.next.Uint64()
	}
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v
}

// thresholdDraws returns draws whose low 53 bits sit on, just below and just
// above ⌈p·2⁵³⌉ and at both ends of the range, each with its unused top 11
// bits clear and set.
func thresholdDraws(p float64) []uint64 {
	const low53 = 1<<53 - 1
	t := uint64(math.Ceil(p * (1 << 53)))
	var out []uint64
	for _, v := range []uint64{t - 1, t, t + 1, 0, low53} {
		out = append(out, v&low53, v|^uint64(low53))
	}
	return out
}

func TestDropoutMatchesBranchingOracle(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	ps := []float64{0.5, 0.1, 0.3, 1.0 / 3, 0x1p-60, math.Nextafter(1, 0)}
	t.Run("float64", func(t *testing.T) { testDropoutOracle[float64](t, n, ps) })
	t.Run("float32", func(t *testing.T) { testDropoutOracle[float32](t, n, ps) })
}

func testDropoutOracle[T tensor.Elem](t *testing.T, n int, ps []float64) {
	data := tensor.NewRand(3)
	x := gateInputs[T](n, data)
	gradOut := gateInputs[T](n, data)
	for k, p := range ps {
		seed := uint64(100 + k)
		rngLayer := rand.New(&edgeSource{vals: thresholdDraws(p), next: tensor.NewPCG(seed)})
		rngOracle := rand.New(&edgeSource{vals: thresholdDraws(p), next: tensor.NewPCG(seed)})

		d := NewDropoutOf[T](p, rngLayer)
		y := d.Forward(tensor.FromSlice(n/64, 64, x), true)
		wantY, wantKeep := oracleDropoutForward(x, p, rngOracle)
		requireSameBits(t, "forward", y.Data, wantY)
		requireSameMask(t, "keep", d.keep, wantKeep)
		g := d.Backward(tensor.FromSlice(n/64, 64, gradOut))
		requireSameBits(t, "backward", g.Data, oracleDropoutBackward(gradOut, wantKeep, p))
		if a, b := rngLayer.Uint64(), rngOracle.Uint64(); a != b {
			t.Fatalf("p=%v: next draw after Forward %#x, oracle's %#x", p, a, b)
		}
	}
}

func TestReLUMatchesBranchingOracle(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testReLUOracle[float64](t) })
	t.Run("float32", func(t *testing.T) { testReLUOracle[float32](t) })
}

func testReLUOracle[T tensor.Elem](t *testing.T) {
	const n = 1 << 12
	data := tensor.NewRand(4)
	x := gateInputs[T](n, data)
	gradOut := gateInputs[T](n, data)
	wantY, wantMask := oracleReLUForward(x)

	r := NewReLUOf[T]()
	requireSameBits(t, "inference forward", r.Forward(tensor.FromSlice(n/64, 64, x), false).Data, wantY)
	if r.mask != nil {
		t.Fatal("an inference Forward recorded a mask")
	}
	requireSameBits(t, "training forward", r.Forward(tensor.FromSlice(n/64, 64, x), true).Data, wantY)
	requireSameMask(t, "mask", r.mask, wantMask)
	g := r.Backward(tensor.FromSlice(n/64, 64, gradOut))
	requireSameBits(t, "backward", g.Data, oracleReLUBackward(gradOut, wantMask))
}

// TestGateBackwardChecksMask: Backward needs the mask of a training
// Forward over exactly as many values. A gradient of another size used to
// be masked by a prefix of the stale mask when smaller and to panic on a
// bare index when larger.
func TestGateBackwardChecksMask(t *testing.T) {
	layers := map[string]func() Layer{
		"ReLU":    func() Layer { return NewReLU() },
		"Dropout": func() Layer { return NewDropout(0.5, tensor.NewRand(1)) },
	}
	for name, build := range layers {
		mustPanic := func(what, want string, f func()) {
			t.Helper()
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, name+".Backward") || !strings.Contains(msg, want) {
					t.Errorf("%s %s: panic %q, want one naming %s.Backward and %q", name, what, msg, name, want)
				}
			}()
			f()
		}
		l := build()
		mustPanic("before Forward", "before Forward(training=true)", func() { l.Backward(tensor.New(2, 3)) })
		l.Forward(tensor.New(2, 3), true)
		mustPanic("smaller gradient", "has 3 values", func() { l.Backward(tensor.New(1, 3)) })
		mustPanic("larger gradient", "has 9 values", func() { l.Backward(tensor.New(3, 3)) })
		if g := l.Backward(tensor.New(3, 2)); len(g.Data) != 6 {
			t.Errorf("%s: Backward of a same-size gradient returned %d values", name, len(g.Data))
		}
	}
}

// TestDropoutPCGMatchesSerial: a layer on a *rand.PCG fills its mask on
// every core by jumping the PCG to each worker's first element; a layer on
// a rand.Rand view of the same PCG runs the serial loop. Forward output,
// keep bits, Backward gradient and the shared source's next draw must be
// bitwise equal at any worker count, over lengths around the kernel's
// split points.
func TestDropoutPCGMatchesSerial(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testDropoutPCG[float64](t) })
	t.Run("float32", func(t *testing.T) { testDropoutPCG[float32](t) })
}

func testDropoutPCG[T tensor.Elem](t *testing.T) {
	const c = tensor.DropoutMinChunk
	shapes := [][2]int{{1, 0}, {1, 1}, {1, c - 1}, {1, c}, {1, c + 1}, {1, 2*c + 1}, {512, 256}}
	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	for _, workers := range []int{1, 2, 3} {
		par.SetMaxWorkers(workers)
		for _, p := range []float64{0.3, 0.5} {
			for k, sh := range shapes {
				n := sh[0] * sh[1]
				data := tensor.NewRand(uint64(10 + k))
				x := tensor.FromSlice(sh[0], sh[1], gateInputs[T](n, data))
				gradOut := tensor.FromSlice(sh[0], sh[1], gateInputs[T](n, data))
				seed := uint64(200 + k)
				kernelSrc, serialSrc := tensor.NewPCG(seed), rand.New(tensor.NewPCG(seed))
				kernel, serial := NewDropoutOf[T](p, kernelSrc), NewDropoutOf[T](p, serialSrc)
				// Two batches: the second starts where the first left the source.
				for batch := range 2 {
					what := fmt.Sprintf("workers=%d p=%v n=%d batch %d", workers, p, n, batch)
					requireSameBits(t, what+" forward", kernel.Forward(x, true).Data, serial.Forward(x, true).Data)
					if !bytes.Equal(kernel.keep, serial.keep) {
						t.Fatalf("%s: keep bits differ", what)
					}
					requireSameBits(t, what+" backward", kernel.Backward(gradOut).Data, serial.Backward(gradOut).Data)
				}
				if a, b := kernelSrc.Uint64(), serialSrc.Uint64(); a != b {
					t.Fatalf("workers=%d p=%v n=%d: next draw %#x after the kernel, %#x after the serial loop", workers, p, n, a, b)
				}
			}
		}
	}
}
