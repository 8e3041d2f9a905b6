package main

import (
	"fmt"
	"math/rand/v2"

	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/models"
	"scalegnn/internal/sampling"
	"scalegnn/internal/tensor"
)

// Standalone layer timers: calls into one public function at the
// workload's shapes, outside any fit, so a kernel's time can be read
// without the rest of the epoch around it.

// standaloneLayers fills graph.operator_build_ms, the tensor.* kernel
// metrics, and (where the model has the layer) sampling.* and
// models.score_us_per_row.
func standaloneLayers(L map[string]float64, e *env, ds *dataset.Dataset, m models.Trainer) {
	reps := e.sz.kernelReps
	if e.w.DType == models.DTypeFloat32 {
		L["graph.operator_build_ms"] = medianOf(3, func() { graph.NewOperatorOf[float32](ds.G, graph.NormSymmetric, true) })
	} else {
		L["graph.operator_build_ms"] = medianOf(3, func() { graph.NewOperator(ds.G, graph.NormSymmetric, true) })
	}

	shape := e.w.KernelShape
	if e.smoke {
		shape[0] = min(shape[0], e.sz.nodes)
	}
	for _, k := range []string{"matmul", "matmul_t", "t_matmul"} {
		L["tensor."+k+"_ms.f64"] = kernelMS[float64](k, shape[0], shape[1], shape[2], reps)
		L["tensor."+k+"_ms.f32"] = kernelMS[float32](k, shape[0], shape[1], shape[2], reps)
	}
	flops := 2 * float64(shape[0]) * float64(shape[1]) * float64(shape[2])
	L["tensor.matmul_gflops.f64"] = ratio(flops, L["tensor.matmul_ms.f64"]*1e6)
	L["tensor.matmul_gflops.f32"] = ratio(flops, L["tensor.matmul_ms.f32"]*1e6)

	if !e.smoke { // DenseOps are sized for the full workload
		var est float64
		for _, op := range e.w.DenseOps {
			if e.w.DType == models.DTypeFloat32 {
				est += float64(op.Calls) * kernelMS[float32](op.Kernel, op.Rows, op.In, op.Out, 5)
			} else {
				est += float64(op.Calls) * kernelMS[float64](op.Kernel, op.Rows, op.In, op.Out, 5)
			}
		}
		L["tensor.dense_est_ms_per_epoch"] = est
	}

	if e.w.Model == "sage" {
		sampleLayer(L, e, ds)
	}
	if sc, ok := m.(models.NodeScorer); ok {
		L["models.score_us_per_row"] = scoreUSPerRow(sc, e.seed)
	}
}

// kernelMS is the median time of one dense kernel of a Linear(in->out)
// layer over rows activations, through the *Into entry point nn.Linear
// uses (see denseOp for the three kinds).
func kernelMS[T tensor.Elem](kind string, rows, in, out, reps int) float64 {
	rng := tensor.NewRand(1)
	x := tensor.RandNormalOf[T](rows, in, 1, rng)
	w := tensor.RandNormalOf[T](in, out, 1, rng)
	g := tensor.RandNormalOf[T](rows, out, 1, rng)
	var fn func()
	switch kind {
	case "matmul":
		dst := tensor.NewOf[T](rows, out)
		fn = func() { tensor.MatMulInto(x, w, dst) }
	case "matmul_t":
		dst := tensor.NewOf[T](rows, in)
		fn = func() { tensor.MatMulTInto(g, w, dst) }
	case "t_matmul":
		dst := tensor.NewOf[T](in, out)
		fn = func() { tensor.TMatMulInto(x, g, dst) }
	default:
		panic(fmt.Sprintf("benchmark: unknown kernel %q", kind))
	}
	fn() // first call pays page faults on dst
	return medianOf(reps, fn)
}

// sampleLayer times NeighborSampler.SampleLayers alone at the workload's
// batch size, fan-out and depth, and counts the neighbour explosion.
func sampleLayer(L map[string]float64, e *env, ds *dataset.Dataset) {
	sampler, err := sampling.NewNeighborSampler(ds.G, sageFanout)
	if err != nil {
		return // fan-out is a constant >= 1
	}
	rng := rand.New(rand.NewPCG(e.seed, 1))
	batch := make([]int32, min(batchSize, len(ds.TrainIdx)))
	const rounds = 40
	var srcs, edges float64
	t := medianOf(rounds, func() {
		for i := range batch {
			batch[i] = int32(ds.TrainIdx[rng.IntN(len(ds.TrainIdx))])
		}
		blocks := sampler.SampleLayers(batch, 2, rng)
		srcs += float64(blocks[len(blocks)-1].NumUniqueSrcs())
		for _, b := range blocks {
			for _, ns := range b.Neigh {
				edges += float64(len(ns))
			}
		}
	})
	L["sampling.sample_ms_per_batch"] = t
	L["sampling.src_nodes_per_batch"] = srcs / rounds
	L["sampling.edges_per_batch"] = edges / rounds
}

// scoreUSPerRow times NodeScorer.Score on 256-row batches of uniform ids.
func scoreUSPerRow(sc models.NodeScorer, seed uint64) float64 {
	const rows = 256
	rng := rand.New(rand.NewPCG(seed, 2))
	idx := make([]int, rows)
	out := tensor.New(rows, sc.Classes())
	t := medianOf(50, func() {
		for i := range idx {
			idx[i] = rng.IntN(sc.Nodes())
		}
		if err := sc.Score(idx, out); err != nil {
			panic(err) // ids are in range and out has the scorer's own shape
		}
	})
	return t * 1e3 / rows
}
