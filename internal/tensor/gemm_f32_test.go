package tensor

import (
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"

	"scalegnn/internal/par"
)

// The float32 products share one block kernel whose contract is one FMA
// chain per output element over k in increasing order from 0. These tests
// hold it to that: the three products computing the same a·b agree bit
// for bit, they equal a fused multiply-add chain taken in k order, the
// bits do not move with the worker count or with which rows and columns
// are computed together, and each result is within a forward error bound
// of a float64 reference.

// gemmShapes are (m, k, n) for a·b: rows and columns off the 4×16 block,
// k across k-tiles, k = 0, no rows, and SIGN's 64 → 5 output layer.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1}, {4, 16, 16}, {13, 37, 21}, {7, mmBlockK + 45, 35},
	{5, 0, 17}, {0, 9, 18}, {512, 64, 5}, {150, 2*mmBlockK + 3, 40},
}

func randF32(rng *rand.Rand, rows, cols int) *Mat[float32] {
	m := NewOf[float32](rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// f32Products returns a·b as computed by MatMulInto(a, b), MatMulTInto(a,
// bᵀ) and TMatMulInto(aᵀ, b), each into a NaN-filled dst.
func f32Products(a, b, at, bt *Mat[float32]) [3]*Mat[float32] {
	var out [3]*Mat[float32]
	for p := range out {
		out[p] = NewOf[float32](a.Rows, b.Cols)
		out[p].Fill(float32(math.NaN())) // the kernels must overwrite, not add
	}
	MatMulInto(a, b, out[0])
	MatMulTInto(a, bt, out[1])
	TMatMulInto(at, b, out[2])
	return out
}

var productNames = [3]string{"MatMulInto", "MatMulTInto", "TMatMulInto"}

// fmaChain is the contract spelled out: s = fma(a[i][k], b[k][j], s) for k
// = 0, 1, …, from s = 0, each step rounded once to float32. big.Float at
// 1 024 bits holds any float32 a·b + s exactly, so the one rounding is
// the Float32 conversion.
func fmaChain(a, b *Mat[float32], i, j int) float32 {
	var s float32
	for k := 0; k < a.Cols; k++ {
		x := new(big.Float).SetPrec(1024).SetFloat64(float64(a.At(i, k)))
		x.Mul(x, new(big.Float).SetFloat64(float64(b.At(k, j))))
		x.Add(x, new(big.Float).SetFloat64(float64(s)))
		s, _ = x.Float32()
	}
	return s
}

func requireSameBitsF32(t testing.TB, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestF32ProductsOneChain: the three products agree bit for bit at every
// worker count and every element is within (k+1)·2⁻²³·Σ|a·b| of the
// float64 product of the same inputs, gate on and off; with the gate on,
// sampled elements equal fmaChain.
func TestF32ProductsOneChain(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	defer func(on bool) { simdOn = on }(simdOn)
	rng := rand.New(rand.NewPCG(5, 35))
	for _, on := range gateSettings() {
		simdOn = on
		for _, s := range gemmShapes {
			a, b := randF32(rng, s.m, s.k), randF32(rng, s.k, s.n)
			at, bt := a.T(), b.T()
			par.SetMaxWorkers(1)
			want := f32Products(a, b, at, bt)[0]
			for w := 1; w <= 3; w++ {
				par.SetMaxWorkers(w)
				for p, got := range f32Products(a, b, at, bt) {
					requireSameBitsF32(t, fmt.Sprintf("%s %dx%dx%d gate=%v workers=%d", productNames[p], s.m, s.k, s.n, on, w),
						got.Data, want.Data)
				}
			}
			step := max(s.m*s.n/400, 1)
			for e := 0; on && e < s.m*s.n; e += step {
				i, j := e/s.n, e%s.n
				if got, chain := want.At(i, j), fmaChain(a, b, i, j); math.Float32bits(got) != math.Float32bits(chain) {
					t.Fatalf("%dx%dx%d [%d,%d] = %v, FMA chain %v", s.m, s.k, s.n, i, j, got, chain)
				}
			}
			for i := 0; i < s.m; i++ {
				for j := 0; j < s.n; j++ {
					var ref, mag float64
					for k := 0; k < s.k; k++ {
						p := float64(a.At(i, k)) * float64(b.At(k, j))
						ref += p
						mag += math.Abs(p)
					}
					if d := math.Abs(float64(want.At(i, j)) - ref); d > float64(s.k+1)*0x1p-23*mag {
						t.Fatalf("%dx%dx%d gate=%v [%d,%d] = %v, float64 %v (|Σ|a·b|| %v)", s.m, s.k, s.n, on, i, j, want.At(i, j), ref, mag)
					}
				}
			}
		}
	}
}

// TestF32ProductsBlockingFree: rows computed on their own (as a serving
// chunk computes them) and columns computed on their own carry the bits
// they have inside the full product, for every start and width, gate on
// and off, so no output element depends on the 4-row or 16-column block
// it falls in.
func TestF32ProductsBlockingFree(t *testing.T) {
	defer func(on bool) { simdOn = on }(simdOn)
	rng := rand.New(rand.NewPCG(6, 36))
	for _, on := range gateSettings() {
		simdOn = on
		testF32BlockingFree(t, rng)
	}
}

func testF32BlockingFree(t *testing.T, rng *rand.Rand) {
	for _, s := range []struct{ m, k, n int }{{23, 37, 37}, {11, mmBlockK + 9, 21}} {
		a, b := randF32(rng, s.m, s.k), randF32(rng, s.k, s.n)
		at, bt := a.T(), b.T()
		full := f32Products(a, b, at, bt)[0]
		for lo := 0; lo < s.m; lo++ {
			for hi := lo + 1; hi <= s.m; hi++ {
				rows := make([]int, hi-lo)
				for i := range rows {
					rows[i] = lo + i
				}
				as := a.SelectRows(rows)
				for p, got := range f32Products(as, b, as.T(), bt) {
					requireSameBitsF32(t, fmt.Sprintf("%s %dx%dx%d rows [%d,%d)", productNames[p], s.m, s.k, s.n, lo, hi),
						got.Data, full.Data[lo*s.n:hi*s.n])
				}
			}
		}
		for lo := 0; lo < s.n; lo++ {
			for hi := lo + 1; hi <= s.n; hi++ {
				cols := make([]int, hi-lo)
				for j := range cols {
					cols[j] = lo + j
				}
				bts := bt.SelectRows(cols)
				want := NewOf[float32](s.m, hi-lo)
				for i := 0; i < s.m; i++ {
					copy(want.Row(i), full.Row(i)[lo:hi])
				}
				for p, got := range f32Products(a, bts.T(), at, bts) {
					requireSameBitsF32(t, fmt.Sprintf("%s %dx%dx%d cols [%d,%d)", productNames[p], s.m, s.k, s.n, lo, hi),
						got.Data, want.Data)
				}
			}
		}
	}
}

// BenchmarkF32Dense times the three float32 products at the shapes of a
// SIGN head over a 512-row batch: the hidden layer's forward (512×256 ·
// 256×64) and weight gradient (256×64 over 512 rows), and the output
// layer's input gradient (512×5 · (64×5)ᵀ). It reports GFMA/s.
func BenchmarkF32Dense(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	const rows, in, hidden, classes = 512, 256, 64, 5
	x, w := randF32(rng, rows, in), randF32(rng, in, hidden)
	g, w2, g2 := randF32(rng, rows, hidden), randF32(rng, hidden, classes), randF32(rng, rows, classes)
	hid, wg, dx := NewOf[float32](rows, hidden), NewOf[float32](in, hidden), NewOf[float32](rows, hidden)
	cases := []struct {
		name string
		fmas int
		run  func()
	}{
		{"forward_512x256x64", rows * in * hidden, func() { MatMulInto(x, w, hid) }},
		{"weight_grad_256x64", rows * in * hidden, func() { TMatMulInto(x, g, wg) }},
		{"input_grad_512x5x64", rows * classes * hidden, func() { MatMulTInto(g2, w2, dx) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.run()
			}
			b.ReportMetric(float64(c.fmas)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFMA/s")
		})
	}
}
