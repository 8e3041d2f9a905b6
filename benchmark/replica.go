package main

import (
	"fmt"
	"math"
	"time"

	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/models"
	"scalegnn/internal/nn"
	"scalegnn/internal/tensor"
)

// The replica epoch: models.GCN's training step rebuilt from the public
// pieces it is made of, with every layer wrapped in a span-recording
// decorator. models.GCN.Fit itself is one opaque call from outside; the
// replica is how the benchmark splits a full-batch epoch into forward,
// backward, loss, optimizer, SpMM and validation without spans inside the
// program.

// timedLayer records one span per Forward/Backward of the layer it wraps.
// While *quiet is set (validation) it records nothing, so that time stays
// with the enclosing train.validate span.
type timedLayer struct {
	inner nn.Layer
	t     *track
	quiet *bool
}

func (l *timedLayer) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	if *l.quiet {
		return l.inner.Forward(x, training)
	}
	l.t.begin("nn.forward")
	y := l.inner.Forward(x, training)
	l.t.end()
	return y
}

func (l *timedLayer) Backward(g *tensor.Matrix) *tensor.Matrix {
	l.t.begin("nn.backward")
	gx := l.inner.Backward(g)
	l.t.end()
	return gx
}

func (l *timedLayer) Params() []*nn.Param { return l.inner.Params() }

// replicaEpoch trains the replica for a few epochs and fills nn.* and
// trace.coverage. measuredEpochMS is the traced fit's op_ms_p50, the
// denominator of the coverage.
func replicaEpoch(L map[string]float64, e *env, t *track, ds *dataset.Dataset, measuredEpochMS float64) error {
	epochs := 6
	if e.smoke {
		epochs = 3
	}
	cfg := trainConfig(e.w, e.seed, epochs)
	rng := tensor.NewRand(cfg.Seed)
	op := graph.NewOperator(ds.G, graph.NormSymmetric, true)
	ds.G.SetApplyHook(&applyTimer{g: ds.G, t: t, name: "graph.spmm"})
	defer ds.G.SetApplyHook(nil)

	quiet := false
	wrap := func(l nn.Layer) nn.Layer { return &timedLayer{inner: l, t: t, quiet: &quiet} }
	net := nn.NewSequential(
		wrap(nn.NewDropout(cfg.Dropout, rng)),
		wrap(&models.GCNConv{Op: op, Lin: nn.NewLinear(featureDim, cfg.Hidden, true, rng)}),
		wrap(nn.NewReLU()),
		wrap(nn.NewDropout(cfg.Dropout, rng)),
		wrap(&models.GCNConv{Op: op, Lin: nn.NewLinear(cfg.Hidden, ds.NumClasses, true, rng)}),
	)
	opt := nn.NewAdam(cfg.LR)
	opt.WeightDecay = cfg.WeightDecay
	defer opt.Reset()
	trainLabels := dataset.LabelsAt(ds.Labels, ds.TrainIdx)

	var steadyFrom time.Time
	var loss float64
	for ep := 0; ep < epochs; ep++ {
		if ep == 1 { // epoch 0 fills the tensor pools
			steadyFrom = time.Now()
		}
		t.begin("replica.epoch")
		logits := net.Forward(ds.X, true)

		t.begin("nn.loss")
		sel := tensor.GetBuf(len(ds.TrainIdx), logits.Cols)
		logits.SelectRowsInto(ds.TrainIdx, sel)
		gSel := tensor.GetBuf(len(ds.TrainIdx), logits.Cols)
		loss = nn.SoftmaxCrossEntropyInto(sel, trainLabels, gSel)
		tensor.PutBuf(sel)
		grad := tensor.GetZeroBuf(logits.Rows, logits.Cols)
		grad.ScatterAddRows(ds.TrainIdx, gSel)
		tensor.PutBuf(gSel)
		t.end()

		net.Backward(grad)
		tensor.PutBuf(grad)

		t.begin("nn.optimizer")
		opt.Step(net.Params())
		t.end()

		t.begin("train.validate")
		quiet = true
		val := tensor.GetBuf(len(ds.ValIdx), logits.Cols)
		net.Forward(ds.X, false).SelectRowsInto(ds.ValIdx, val)
		_ = nn.Argmax(val)
		tensor.PutBuf(val)
		quiet = false
		t.end()
		t.end()
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("replica epoch: loss %v", loss)
	}

	self := e.rec.selfTimes(t.id, e.rec.at(steadyFrom), e.rec.at(time.Now()))
	n := float64(epochs - 1)
	L["nn.forward_ms_per_epoch"] = self["nn.forward"] / n
	L["nn.backward_ms_per_epoch"] = self["nn.backward"] / n
	L["nn.loss_ms_per_epoch"] = self["nn.loss"] / n
	L["nn.optimizer_step_ms_per_epoch"] = self["nn.optimizer"] / n
	attributed := self["nn.forward"] + self["nn.backward"] + self["nn.loss"] +
		self["nn.optimizer"] + self["graph.spmm"] + self["train.validate"]
	L["trace.coverage"] = ratio(attributed/n, measuredEpochMS)
	return nil
}
