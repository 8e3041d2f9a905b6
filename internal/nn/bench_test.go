package nn

import (
	"math/rand/v2"
	"testing"

	"scalegnn/internal/tensor"
)

// The element-wise gates at the shapes the benchmark workloads train:
// SIGN's MLP head on a 512-row float32 batch of 256 features, and
// full-batch GCN's 20 000×64 float64 hidden layer. Each reports ns per
// element; run with
//
//	go test -run '^$' -bench 'Dropout|ReLU' -cpu 1 ./internal/nn
//
// (Dropout's "pcg" case fills on every core the -cpu list allows; compare
// -cpu 1 with -cpu 2.)

var gateShapes = []struct {
	name       string
	rows, cols int
	f32        bool
}{
	{"sign_512x256_f32", 512, 256, true},
	{"gcn_20000x64_f64", 20000, 64, false},
}

func BenchmarkDropoutForward(b *testing.B) {
	for _, s := range gateShapes {
		if s.f32 {
			b.Run(s.name, func(b *testing.B) { benchDropoutForward[float32](b, s.rows, s.cols) })
		} else {
			b.Run(s.name, func(b *testing.B) { benchDropoutForward[float64](b, s.rows, s.cols) })
		}
	}
}

func BenchmarkReLU(b *testing.B) {
	for _, s := range gateShapes {
		if s.f32 {
			b.Run(s.name, func(b *testing.B) { benchReLU[float32](b, s.rows, s.cols) })
		} else {
			b.Run(s.name, func(b *testing.B) { benchReLU[float64](b, s.rows, s.cols) })
		}
	}
}

// gateBenchInput is a rows×cols matrix of standard-normal values: half
// of them positive, so ReLU's sign test is a coin flip as in training.
func gateBenchInput[T tensor.Elem](rows, cols int) *tensor.Mat[T] {
	rng := tensor.NewRand(1)
	x := tensor.NewOf[T](rows, cols)
	for i := range x.Data {
		x.Data[i] = T(rng.NormFloat64())
	}
	return x
}

func reportPerElem(b *testing.B, elems int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
}

// benchDropoutForward times the layer on a *rand.PCG, the source models
// pass and the one the parallel fill takes, and, as "serial", on a
// rand.Rand view of it, which runs the reference loop.
func benchDropoutForward[T tensor.Elem](b *testing.B, rows, cols int) {
	x := gateBenchInput[T](rows, cols)
	sources := []struct {
		name string
		src  rand.Source
	}{
		{"pcg", tensor.NewPCG(2)},
		{"serial", rand.New(tensor.NewPCG(2))},
	}
	for _, s := range sources {
		b.Run(s.name, func(b *testing.B) {
			d := NewDropoutOf[T](0.5, s.src)
			d.Forward(x, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Forward(x, true)
			}
			reportPerElem(b, len(x.Data))
		})
	}
}

func benchReLU[T tensor.Elem](b *testing.B, rows, cols int) {
	x := gateBenchInput[T](rows, cols)
	r := NewReLUOf[T]()
	r.Forward(x, true)
	r.Backward(x)
	b.Run("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Forward(x, true)
		}
		reportPerElem(b, len(x.Data))
	})
	b.Run("backward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Backward(x)
		}
		reportPerElem(b, len(x.Data))
	})
}
