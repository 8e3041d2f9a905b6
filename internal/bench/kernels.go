// Kernel microbenchmarks: the machine-readable BENCH_kernels.json report
// covering the dense matmul family, the CSR SpMM propagation path, and the
// end-to-end GCN training epoch at both numeric tiers. The float64 entries
// are the reference; the float32 twins quantify the raw-speed tier (the
// headline number is gcn_epoch float32 vs float64 throughput). The
// allocs/op column feeds the perf-regression gate in scripts/check.sh: the
// *Into kernels are pool-backed and must stay allocation-free at steady
// state.
package bench

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"testing"

	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/models"
	"scalegnn/internal/nn"
	"scalegnn/internal/tensor"
)

// KernelResult is one row of BENCH_kernels.json — the same shape as the
// serving load-test entries (name / ns_op / allocs_op / bytes_op / qps).
type KernelResult struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
	BytesOp  int64   `json:"bytes_op"`
	QPS      float64 `json:"qps"`
}

// KernelBenchReport is the BENCH_kernels.json document.
type KernelBenchReport struct {
	Bench   string          `json:"bench"`
	Results []*KernelResult `json:"results"`
}

// WriteKernelBenchJSON writes the machine-readable kernel benchmark report.
func WriteKernelBenchJSON(path string, results []*KernelResult) error {
	data, err := json.MarshalIndent(KernelBenchReport{Bench: "kernels", Results: results}, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: kernel report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: kernel report: %w", err)
	}
	return nil
}

// record converts a testing.Benchmark result into a report row.
func record(name string, r testing.BenchmarkResult) *KernelResult {
	ns := float64(r.NsPerOp())
	qps := 0.0
	if ns > 0 {
		qps = 1e9 / ns
	}
	return &KernelResult{
		Name:     name,
		NsPerOp:  ns,
		AllocsOp: r.AllocsPerOp(),
		BytesOp:  r.AllocedBytesPerOp(),
		QPS:      qps,
	}
}

// kernelSizes returns (m, k, n, graphNodes, featDim, hidden) for the dense
// and sparse workloads at the requested scale.
func kernelSizes(quick bool) (int, int, int, int, int, int) {
	if quick {
		return 128, 96, 64, 3000, 32, 32
	}
	return 512, 256, 128, 20000, 64, 64
}

// benchMatMuls measures the three dense *Into kernels at tier T. All
// operands are preallocated: steady-state allocs/op must be zero.
func benchMatMuls[T tensor.Elem](dt string, m, k, n int, rng *rand.Rand, out *[]*KernelResult) {
	a := tensor.NewOf[T](m, k)  // left operand
	b := tensor.NewOf[T](k, n)  // right operand, classic layout
	bt := tensor.NewOf[T](n, k) // right operand, transposed layout
	b2 := tensor.NewOf[T](m, n) // right operand for the aᵀ·b kernel
	dst := tensor.NewOf[T](m, n)
	dstT := tensor.NewOf[T](k, n)
	fill := func(x *tensor.Mat[T]) {
		for i := range x.Data {
			x.Data[i] = T(rng.Float64() - 0.5)
		}
	}
	fill(a)
	fill(b)
	fill(bt)
	fill(b2)
	*out = append(*out,
		record(fmt.Sprintf("matmul_into/%s/%dx%dx%d", dt, m, k, n), testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				tensor.MatMulInto(a, b, dst)
			}
		})),
		record(fmt.Sprintf("matmul_t_into/%s/%dx%dx%d", dt, m, k, n), testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				tensor.MatMulTInto(a, bt, dst)
			}
		})),
		record(fmt.Sprintf("t_matmul_into/%s/%dx%dx%d", dt, k, m, n), testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				tensor.TMatMulInto(a, b2, dstT)
			}
		})),
	)
}

// benchF64Kernels measures the two float64 vector kernels on their own, at
// the shape one GCN destination row has (25 arcs over 64 columns). They run
// once per row or per arc, so the gate holds them to zero allocations.
func benchF64Kernels(rng *rand.Rand, out *[]*KernelResult) {
	const terms, rows, cols = 25, 512, 64
	x := make([]float64, rows*cols)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	coef := make([]float64, terms)
	idx := make([]int32, terms)
	for k := range coef {
		coef[k] = rng.Float64()
		idx[k] = int32(rng.IntN(rows))
	}
	acc := make([]float64, cols)
	*out = append(*out,
		record(fmt.Sprintf("f64_axpy/float64/n%d", cols), testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				tensor.F64Axpy(1e-9, x[:cols], acc)
			}
		})),
		record(fmt.Sprintf("f64_accum_rows/float64/%dx%d", terms, cols), testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				tensor.F64AccumRows(coef, idx, x, rows, cols, acc)
			}
		})),
	)
}

// benchSpMM measures the CSR×dense propagation ApplyInto at tier T over a
// synthetic homophilous graph.
func benchSpMM[T tensor.Elem](dt string, ds *dataset.Dataset, dim int, rng *rand.Rand, out *[]*KernelResult) {
	op := graph.NewOperatorOf[T](ds.G, graph.NormSymmetric, true)
	x := tensor.NewOf[T](ds.G.N, dim)
	for i := range x.Data {
		x.Data[i] = T(rng.Float64() - 0.5)
	}
	dst := tensor.NewOf[T](ds.G.N, dim)
	*out = append(*out, record(
		fmt.Sprintf("spmm_apply_into/%s/n%d_d%d", dt, ds.G.N, dim),
		testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				op.ApplyInto(x, dst)
			}
		})))
}

// benchGCNEpoch measures one full-batch GCN training epoch (forward,
// masked loss, backward, Adam step) at tier T — the tentpole number: the
// float32 tier targets >= 2x the float64 epoch throughput.
func benchGCNEpoch[T tensor.Elem](dt string, ds *dataset.Dataset, hidden int, seed uint64, out *[]*KernelResult) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	op := graph.NewOperatorOf[T](ds.G, graph.NormSymmetric, true)
	x := tensor.FromFloat64[T](ds.X)
	net := nn.NewSequentialOf[T](
		&models.GCNConvOf[T]{Op: op, Lin: nn.NewLinearOf[T](ds.X.Cols, hidden, true, rng)},
		nn.NewReLUOf[T](),
		&models.GCNConvOf[T]{Op: op, Lin: nn.NewLinearOf[T](hidden, ds.NumClasses, true, rng)},
	)
	opt := nn.NewAdamOf[T](0.01)
	defer opt.Reset()
	*out = append(*out, record(
		fmt.Sprintf("gcn_epoch/%s/n%d_h%d", dt, ds.G.N, hidden),
		testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				logits := net.Forward(x, true)
				grad := tensor.GetBufOf[T](logits.Rows, logits.Cols)
				nn.SoftmaxCrossEntropyInto(logits, ds.Labels, grad)
				net.Backward(grad)
				tensor.PutBufOf(grad)
				opt.Step(net.Params())
			}
		})))
}

// RunKernelBench runs the kernel suite at both tiers and returns the
// report rows, float64 first so diffing runs is stable.
func RunKernelBench(quick bool, seed uint64) ([]*KernelResult, error) {
	m, k, n, nodes, dim, hidden := kernelSizes(quick)
	ds, err := dataset.Load("", "", dataset.Config{
		Nodes: nodes, Classes: 5, AvgDegree: 10, Homophily: 0.8,
		FeatureDim: dim, NoiseStd: 1.2, TrainFrac: 0.5, ValFrac: 0.2, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: kernel dataset: %w", err)
	}
	var results []*KernelResult
	for _, dt := range []string{"float64", "float32"} {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		if dt == "float32" {
			benchMatMuls[float32](dt, m, k, n, rng, &results)
			benchSpMM[float32](dt, ds, dim, rng, &results)
			benchGCNEpoch[float32](dt, ds, hidden, seed, &results)
		} else {
			benchF64Kernels(rng, &results)
			benchMatMuls[float64](dt, m, k, n, rng, &results)
			benchSpMM[float64](dt, ds, dim, rng, &results)
			benchGCNEpoch[float64](dt, ds, hidden, seed, &results)
		}
	}
	return results, nil
}
