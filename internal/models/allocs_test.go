package models

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/nn"
	"scalegnn/internal/par"
	"scalegnn/internal/sampling"
	"scalegnn/internal/tensor"
)

// allocCeilings is the allocation contract of the pooled hot path: the most
// heap allocations one steady-state call of each kernel family may make with
// a single par worker. The *Into kernels and the layers built on them draw
// every buffer from the tensor pool, so a pooling regression (a tensor.New
// where GetBuf belongs, a per-row scratch slice) costs tens to thousands of
// allocations per call and fails here. The one allocation of the dense and
// sparse kernels is the closure handed to par.Range; the epoch measures 14
// (ten such closures, four Params slices) and keeps the slack of two it has
// always had. Time is not this test's business — benchmark/ measures it.
var allocCeilings = []struct {
	name string
	max  float64
}{
	{"f64_axpy/float64", 0},
	{"f64_accum_rows/float64", 0},
	{"matmul_into/float64", 1},
	{"matmul_into/float32", 1},
	{"matmul_t_into/float64", 1},
	{"matmul_t_into/float32", 1},
	{"t_matmul_into/float64", 1},
	{"t_matmul_into/float32", 1},
	{"t_matmul_into_narrow/float64", 1},
	{"spmm_apply_into/float64", 1},
	{"spmm_apply_into/float32", 1},
	{"gcn_epoch/float64", 16},
	{"gcn_epoch/float32", 16},
	{"sage_step/float64", 49},
}

// TestAllocCeilings holds every family in allocCeilings to its ceiling and
// requires the families built below and the table to be the same set, so a
// renamed or dropped case fails instead of going unmeasured.
func TestAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("sync.Pool drops puts under the race detector, which the -short pass runs with")
	}
	// Goroutines allocate, and how many par.Range starts depends on the
	// host's CPU count; one worker makes the counts a property of the code.
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))

	ds, err := dataset.Generate(dataset.Config{
		Nodes: 3000, Classes: 5, AvgDegree: 10, Homophily: 0.8,
		FeatureDim: 32, NoiseStd: 1.2, TrainFrac: 0.5, ValFrac: 0.2, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(){}
	addF64KernelCases(cases)
	addTierCases[float64](cases, "float64", ds)
	addTierCases[float32](cases, "float32", ds)
	cases["sage_step/float64"] = sageStep(ds)

	for _, c := range allocCeilings {
		body, ok := cases[c.name]
		if !ok {
			t.Errorf("%s: in allocCeilings but no case builds it", c.name)
			continue
		}
		delete(cases, c.name)
		if got := testing.AllocsPerRun(50, body); got > c.max {
			t.Errorf("%s: %v allocs per call, ceiling %v", c.name, got, c.max)
		}
	}
	for name := range cases {
		t.Errorf("%s: case has no entry in allocCeilings", name)
	}
}

// addF64KernelCases adds the two float64 vector kernels on their own, at the
// shape one GCN destination row has (25 arcs over 64 columns). They run once
// per row or per arc, so nothing at all may allocate. It also adds the
// weight gradient of SAGE's 64→5 output layer over a 512-row batch, whose
// gathered columns of x must stay on the kernel's stack.
func addF64KernelCases(cases map[string]func()) {
	const terms, rows, cols = 25, 512, 64
	rng := rand.New(rand.NewPCG(42, 43))
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
	cases["f64_axpy/float64"] = func() { tensor.F64Axpy(1e-9, x[:cols], acc) }
	cases["f64_accum_rows/float64"] = func() { tensor.F64AccumRows(coef, idx, x, rows, cols, acc) }

	const classes = 5
	xm := tensor.FromSlice(rows, cols, x)
	g := tensor.FromSlice(rows, classes, x[:rows*classes])
	wg := tensor.New(cols, classes)
	cases["t_matmul_into_narrow/float64"] = func() { tensor.TMatMulInto(xm, g, wg) }
}

// addTierCases adds, at tier T, the three dense *Into kernels on
// preallocated operands, the CSR×dense ApplyInto, and one full-batch GCN
// training epoch (forward, loss, backward, Adam step) through the public
// layers.
func addTierCases[T tensor.Elem](cases map[string]func(), dt string, ds *dataset.Dataset) {
	const m, k, n, hidden = 128, 96, 64, 32
	rng := rand.New(rand.NewPCG(42, 43))
	filled := func(rows, cols int) *tensor.Mat[T] {
		x := tensor.NewOf[T](rows, cols)
		for i := range x.Data {
			x.Data[i] = T(rng.Float64() - 0.5)
		}
		return x
	}
	a, b, bt, b2 := filled(m, k), filled(k, n), filled(n, k), filled(m, n)
	dst, dstT := tensor.NewOf[T](m, n), tensor.NewOf[T](k, n)
	cases["matmul_into/"+dt] = func() { tensor.MatMulInto(a, b, dst) }
	cases["matmul_t_into/"+dt] = func() { tensor.MatMulTInto(a, bt, dst) }
	cases["t_matmul_into/"+dt] = func() { tensor.TMatMulInto(a, b2, dstT) }

	op := graph.NewOperatorOf[T](ds.G, graph.NormSymmetric, true)
	x := tensor.FromFloat64[T](ds.X)
	prop := tensor.NewOf[T](x.Rows, x.Cols)
	cases["spmm_apply_into/"+dt] = func() { op.ApplyInto(x, prop) }

	net := nn.NewSequentialOf[T](
		&GCNConvOf[T]{Op: op, Lin: nn.NewLinearOf[T](ds.X.Cols, hidden, true, rng)},
		nn.NewReLUOf[T](),
		&GCNConvOf[T]{Op: op, Lin: nn.NewLinearOf[T](hidden, ds.NumClasses, true, rng)},
	)
	opt := nn.NewAdamOf[T](0.01)
	cases["gcn_epoch/"+dt] = func() {
		logits := net.Forward(x, true)
		grad := tensor.GetBufOf[T](logits.Rows, logits.Cols)
		nn.SoftmaxCrossEntropyInto(logits, ds.Labels, grad)
		net.Backward(grad)
		tensor.PutBufOf(grad)
		opt.Step(net.Params())
	}
}

// sageStep returns one GraphSAGE training step as fitSAGE runs it on the
// next 512 training nodes of ds: sample two layers at fan-out 5, forward,
// loss, backward and an Adam step.
func sageStep(ds *dataset.Dataset) func() {
	const batch, hidden, fanout = 512, 32, 5
	rng := rand.New(rand.NewPCG(42, 43))
	sampler, err := sampling.NewNeighborSampler(ds.G, fanout)
	if err != nil {
		panic(err)
	}
	st := &sageState{fanout: fanout, layers: []*sageLayer{
		newSageLayer(ds.X.Cols, hidden, true, rng),
		newSageLayer(hidden, ds.NumClasses, false, rng),
	}}
	st.layers[0].self.NoInputGrad, st.layers[0].neigh.NoInputGrad = true, true
	params := append(st.layers[0].params(), st.layers[1].params()...)
	opt := nn.NewAdam(0.01)
	dsts, labels := make([]int32, batch), make([]int, batch)
	next := 0
	return func() {
		for i := range dsts {
			dsts[i] = int32(ds.TrainIdx[(next+i)%len(ds.TrainIdx)])
			labels[i] = ds.Labels[dsts[i]]
		}
		next += batch
		blocks := sampler.SampleLayers(dsts, 2, rng)
		logits := st.forwardBlocks(blocks, ds.X, true)
		grad := tensor.GetBuf(logits.Rows, logits.Cols)
		nn.SoftmaxCrossEntropyInto(logits, labels, grad)
		st.backwardBlocks(blocks, grad)
		tensor.PutBuf(grad)
		opt.Step(params)
	}
}

// TestSAGEStepBytesFlatInWidth holds the bytes one steady-state SAGE step
// allocates at feature width 128 to within 10 % of those at width 32:
// what a step allocates is block metadata, sized by the sample, and no
// matrix sized by the features.
func TestSAGEStepBytesFlatInWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("sync.Pool drops puts under the race detector, which the -short pass runs with")
	}
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	bytesPerStep := func(width int) float64 {
		ds, err := dataset.Generate(dataset.Config{
			Nodes: 3000, Classes: 5, AvgDegree: 10, Homophily: 0.8,
			FeatureDim: width, NoiseStd: 1.2, TrainFrac: 0.5, ValFrac: 0.2, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		step := sageStep(ds)
		for i := 0; i < 10; i++ {
			step()
		}
		// A batch whose sample is the largest yet grows the reused
		// buffers once; the least of five windows leaves that out.
		const steps = 10
		least := math.Inf(1)
		for w := 0; w < 5; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < steps; i++ {
				step()
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/steps)
		}
		return least
	}
	narrow, wide := bytesPerStep(32), bytesPerStep(128)
	if wide > 1.1*narrow {
		t.Errorf("a step allocates %.0f B at width 128, %.0f B at width 32: more than 10 %% apart", wide, narrow)
	}
	t.Logf("bytes per step: %.0f at width 32, %.0f at width 128", narrow, wide)
}
