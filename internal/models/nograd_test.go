package models

import (
	"math"
	"testing"

	"scalegnn/internal/graph"
	"scalegnn/internal/nn"
	"scalegnn/internal/sampling"
	"scalegnn/internal/tensor"
)

// The trainers switch the first parametrised layer to "no input gradient"
// (nn.LinearOf.NoInputGrad). These tests build the same network twice from
// one seed, opt one copy in, and require bit-equal parameter gradients and
// values over three Adam steps: what the mode drops was never read.

func requireSameParams(t *testing.T, step int, ref, skip []*nn.Param) {
	t.Helper()
	for i, p := range ref {
		for _, pair := range [][2]*tensor.Matrix{{p.Grad, skip[i].Grad}, {p.Value, skip[i].Value}} {
			for j, v := range pair[0].Data {
				if math.Float64bits(v) != math.Float64bits(pair[1].Data[j]) {
					t.Fatalf("step %d %s[%d]: %v with the input gradient, %v without", step, p.Name, j, v, pair[1].Data[j])
				}
			}
		}
	}
}

func TestNoInputGradGCNParamsBitEqual(t *testing.T) {
	ds := smallTask(t)
	op := graph.NewOperator(ds.G, graph.NormSymmetric, true)
	build := func(skip bool) *nn.Sequential {
		rng := tensor.NewRand(3)
		lin0 := nn.NewLinear(ds.X.Cols, 8, true, rng)
		lin0.NoInputGrad = skip
		return nn.NewSequential(
			nn.NewDropout(0.5, rng), &GCNConv{Op: op, Lin: lin0}, nn.NewReLU(),
			nn.NewDropout(0.5, rng), &GCNConv{Op: op, Lin: nn.NewLinear(8, ds.NumClasses, true, rng)},
		)
	}
	ref, skip := build(false), build(true)
	optRef, optSkip := nn.NewAdam(0.01), nn.NewAdam(0.01)
	defer optRef.Reset()
	defer optSkip.Reset()
	for step := 0; step < 3; step++ {
		_, g := maskedLoss(ref.Forward(ds.X, true), ds.Labels, ds.TrainIdx)
		if ref.Backward(g) == nil {
			t.Fatal("default GCNConv.Backward returned nil")
		}
		tensor.PutBuf(g)
		_, g = maskedLoss(skip.Forward(ds.X, true), ds.Labels, ds.TrainIdx)
		if skip.Backward(g) != nil {
			t.Fatal("GCNConv over a NoInputGrad Linear still returned an input gradient")
		}
		tensor.PutBuf(g)
		requireSameParams(t, step, ref.Params(), skip.Params())
		optRef.Step(ref.Params())
		optSkip.Step(skip.Params())
		requireSameParams(t, step, ref.Params(), skip.Params())
	}
}

func TestNoInputGradSAGEParamsBitEqual(t *testing.T) {
	ds := smallTask(t)
	sampler, err := sampling.NewNeighborSampler(ds.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	build := func(skip bool) (*GraphSAGE, []*nn.Param) {
		rng := tensor.NewRand(3)
		m := &GraphSAGE{Layers: 2, Fanout: 4}
		m.layers = []*sageLayer{
			newSageLayer(ds.X.Cols, 8, true, rng),
			newSageLayer(8, ds.NumClasses, false, rng),
		}
		m.layers[0].self.NoInputGrad, m.layers[0].neigh.NoInputGrad = skip, skip
		return m, append(m.layers[0].params(), m.layers[1].params()...)
	}
	ref, refParams := build(false)
	skip, skipParams := build(true)
	optRef, optSkip := nn.NewAdam(0.01), nn.NewAdam(0.01)
	defer optRef.Reset()
	defer optSkip.Reset()
	rng := tensor.NewRand(17)
	for step := 0; step < 3; step++ {
		dsts := make([]int32, 64)
		labels := make([]int, len(dsts))
		for i := range dsts {
			dsts[i] = int32(ds.TrainIdx[(step*len(dsts)+i)%len(ds.TrainIdx)])
			labels[i] = ds.Labels[dsts[i]]
		}
		blocks := sampler.SampleLayers(dsts, 2, rng)
		for _, m := range []*GraphSAGE{ref, skip} {
			_, g := nn.SoftmaxCrossEntropy(m.forwardBlocks(blocks, ds.X, true), labels)
			m.backwardBlocks(blocks, g)
		}
		requireSameParams(t, step, refParams, skipParams)
		optRef.Step(refParams)
		optSkip.Step(skipParams)
		requireSameParams(t, step, refParams, skipParams)
	}
}

// TestTrainersOptIntoNoInputGrad checks who opts in: the heads over fixed
// data do, GAMLP — which reads its attention gradient off net.Backward —
// does not.
func TestTrainersOptIntoNoInputGrad(t *testing.T) {
	ds := smallTask(t)
	cfg := quickCfg()
	first := func(net *nn.Sequential) *nn.Linear {
		for _, l := range net.Layers {
			if lin, ok := l.(*nn.Linear); ok {
				return lin
			}
		}
		t.Fatal("no Linear in the head")
		return nil
	}
	if !first(noInputGrad(newHead[float64](ds.X.Cols, []int{8}, ds, cfg, tensor.NewRand(1)))).NoInputGrad {
		t.Error("noInputGrad did not mark the head's first Linear")
	}
	m, err := NewGAMLP(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Epochs = 2
	if _, err := m.Fit(ds, cfg); err != nil {
		t.Fatal(err)
	}
	if first(m.served.st.(*gamlpState[float64]).net).NoInputGrad {
		t.Error("GAMLP's head must keep its input gradient: the attention gradient is read from it")
	}
}
