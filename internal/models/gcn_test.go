package models

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"scalegnn/internal/dataset"
	"scalegnn/internal/distnet"
	"scalegnn/internal/graph"
	"scalegnn/internal/nn"
	"scalegnn/internal/partition"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// convTask returns a small undirected task with in-wide features, and its
// symmetric-normalized operator.
func convTask(t *testing.T, in int) (*dataset.Dataset, *graph.Operator) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Nodes: 40, Classes: 5, AvgDegree: 6, Homophily: 0.8,
		FeatureDim: in, NoiseStd: 1, TrainFrac: 0.5, ValFrac: 0.2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, graph.NewOperator(ds.G, graph.NormSymmetric, true)
}

// newConv builds an in→out GCNConvOf whose bias is not zero, so a bias
// misplaced around the propagation shows.
func newConv[T tensor.Elem](op *graph.OperatorOf[T], in, out int) *GCNConvOf[T] {
	rng := tensor.NewRand(11)
	lin := nn.NewLinearOf[T](in, out, true, rng)
	copy(lin.B.Value.Data, tensor.RandNormalOf[T](1, out, 1, rng).Data)
	return &GCNConvOf[T]{Op: op, Lin: lin}
}

// convPass runs one training Forward and a Backward of g on a layer with
// cleared gradients, and returns copies of y, ∂L/∂W, ∂L/∂b and ∂L/∂x.
func convPass[T tensor.Elem](c *GCNConvOf[T], x, g *tensor.Mat[T]) (y, dW, db, dx *tensor.Mat[T]) {
	c.Lin.W.ZeroGrad()
	c.Lin.B.ZeroGrad()
	y = c.Forward(x, true).Clone()
	dx = c.Backward(g).Clone()
	return y, c.Lin.W.Grad.Clone(), c.Lin.B.Grad.Clone(), dx
}

// explicitConv computes the same four matrices as convPass in the order
// Lin(Âx) prescribes, with the kernels LinearOf uses: p = Âx, y = pW + b,
// ∂L/∂W = pᵀg, ∂L/∂b = Σ rows(g), ∂L/∂x = Â(gWᵀ).
func explicitConv[T tensor.Elem](c *GCNConvOf[T], x, g *tensor.Mat[T]) (y, dW, db, dx *tensor.Mat[T]) {
	w := c.Lin.W.Value
	p := tensor.NewOf[T](x.Rows, x.Cols)
	c.Op.ApplyInto(x, p)
	y = tensor.NewOf[T](x.Rows, w.Cols)
	tensor.MatMulInto(p, w, y)
	y.AddRowVector(c.Lin.B.Value.Row(0))
	dW = tensor.NewOf[T](w.Rows, w.Cols)
	tensor.TMatMulInto(p, g, dW)
	db = tensor.NewOf[T](1, w.Cols)
	for i := 0; i < g.Rows; i++ {
		for j, v := range g.Row(i) {
			db.Data[j] += v
		}
	}
	gw := tensor.NewOf[T](g.Rows, w.Rows)
	tensor.MatMulTInto(g, w, gw)
	dx = tensor.NewOf[T](x.Rows, x.Cols)
	c.Op.ApplyInto(gw, dx)
	return y, dW, db, dx
}

// TestGCNConvGradientsFiniteDifference checks ∂L/∂x, ∂L/∂W and ∂L/∂b of
// one layer against central differences of L = Σ y∘R, in both orders:
// 64→5 transforms first, 5→64 propagates first.
func TestGCNConvGradientsFiniteDifference(t *testing.T) {
	for _, dims := range [][2]int{{64, 5}, {5, 64}} {
		in, out := dims[0], dims[1]
		ds, op := convTask(t, in)
		c := newConv(op, in, out)
		if c.narrow() != (out < in) {
			t.Fatalf("%d→%d: narrow() = %v", in, out, c.narrow())
		}
		x := ds.X
		r := tensor.RandNormal(x.Rows, out, 1, tensor.NewRand(12))
		_, dW, db, dx := convPass(c, x, r)
		loss := func() float64 {
			var l float64
			for i, v := range c.Forward(x, false).Data {
				l += v * r.Data[i]
			}
			return l
		}
		const eps = 1e-6
		for _, tc := range []struct {
			name     string
			val, ana *tensor.Matrix
		}{{"x", x, dx}, {"W", c.Lin.W.Value, dW}, {"b", c.Lin.B.Value, db}} {
			for i, orig := range tc.val.Data {
				tc.val.Data[i] = orig + eps
				lp := loss()
				tc.val.Data[i] = orig - eps
				lm := loss()
				tc.val.Data[i] = orig
				fd := (lp - lm) / (2 * eps)
				if math.Abs(fd-tc.ana.Data[i]) > 1e-6*(1+math.Abs(fd)) {
					t.Fatalf("%d→%d ∂L/∂%s[%d]: analytic %v, finite difference %v", in, out, tc.name, i, tc.ana.Data[i], fd)
				}
			}
		}
	}
}

// outputNames names convPass's four results.
var outputNames = []string{"y", "∂L/∂W", "∂L/∂b", "∂L/∂x"}

// maxRelDiff returns max|a−b| / max|b| over two equal-shape matrices.
func maxRelDiff[T tensor.Elem](a, b *tensor.Mat[T]) float64 {
	var diff, scale float64
	for i, v := range b.Data {
		diff = max(diff, math.Abs(float64(a.Data[i])-float64(v)))
		scale = max(scale, math.Abs(float64(v)))
	}
	return diff / scale
}

// checkNarrowMatchesExplicit compares a 64→5 layer's forward and its three
// gradients with the explicit Lin(Âx) computation, to a relative tol.
func checkNarrowMatchesExplicit[T tensor.Elem](t *testing.T, tol float64) {
	ds, _ := convTask(t, 64)
	op := graph.NewOperatorOf[T](ds.G, graph.NormSymmetric, true)
	c := newConv(op, 64, 5)
	x := tensor.FromFloat64[T](ds.X)
	g := tensor.RandNormalOf[T](x.Rows, 5, 1, tensor.NewRand(12))
	y, dW, db, dx := convPass(c, x, g)
	ey, edW, edb, edx := explicitConv(c, x, g)
	for i, pair := range [][2]*tensor.Mat[T]{{y, ey}, {dW, edW}, {db, edb}, {dx, edx}} {
		if d := maxRelDiff(pair[0], pair[1]); !(d <= tol) {
			t.Errorf("%T %s: relative difference %g from Lin(Âx), want ≤ %g", *new(T), outputNames[i], d, tol)
		}
	}
}

// TestGCNConvNarrowMatchesExplicit holds the transform-first order to the
// propagate-first one it replaces, on both tiers.
func TestGCNConvNarrowMatchesExplicit(t *testing.T) {
	checkNarrowMatchesExplicit[float64](t, 1e-12)
	checkNarrowMatchesExplicit[float32](t, 1e-4)
}

// TestGCNConvWideBitEqualExplicit pins a layer with out ≥ in to the bits of
// the explicit Lin(Âx) computation: the propagate-first path is unchanged.
func TestGCNConvWideBitEqualExplicit(t *testing.T) {
	for _, dims := range [][2]int{{5, 64}, {16, 16}} {
		ds, op := convTask(t, dims[0])
		c := newConv(op, dims[0], dims[1])
		g := tensor.RandNormal(ds.X.Rows, dims[1], 1, tensor.NewRand(12))
		y, dW, db, dx := convPass(c, ds.X, g)
		ey, edW, edb, edx := explicitConv(c, ds.X, g)
		for i, pair := range [][2]*tensor.Matrix{{y, ey}, {dW, edW}, {db, edb}, {dx, edx}} {
			for j, v := range pair[0].Data {
				if math.Float64bits(v) != math.Float64bits(pair[1].Data[j]) {
					t.Fatalf("%d→%d %s[%d]: %v, explicit %v", dims[0], dims[1], outputNames[i], j, v, pair[1].Data[j])
				}
			}
		}
	}
}

// widthRecorder is an ApplyHook that records the width of every matrix
// propagated on its graph, cut into one segment per training step and per
// validation pass, and propagates over all rows itself.
type widthRecorder struct {
	rows []int32
	segs [][]int
}

func (w *widthRecorder) record(cols int) {
	last := &w.segs[len(w.segs)-1]
	*last = append(*last, cols)
}

func (w *widthRecorder) Apply64(op *graph.Operator, x, dst *tensor.Matrix) {
	w.record(x.Cols)
	op.ApplyRowsInto(x, dst, w.rows)
}

func (w *widthRecorder) Apply32(op *graph.OperatorOf[float32], x, dst *tensor.Mat[float32]) {
	w.record(x.Cols)
	op.ApplyRowsInto(x, dst, w.rows)
}

func (w *widthRecorder) OnBatch(train.BatchEnd) { w.segs = append(w.segs, nil) }
func (w *widthRecorder) OnEpoch(train.EpochEnd) { w.segs = append(w.segs, nil) }

// TestGCNConvPropagatedWidths pins what a GCN epoch propagates: on a
// 32→64→5 network the training step moves 32 columns forward and 5 forward
// and back (the first layer reads no ∂L/∂X), and every inference forward
// of the fit only 5 (it reads the fit's one Âx, which reaches no hook); a
// 1-layer 32→5 GCN moves only 5-wide matrices.
func TestGCNConvPropagatedWidths(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Nodes: 200, Classes: 5, AvgDegree: 6, Homophily: 0.8,
		FeatureDim: 32, NoiseStd: 1, TrainFrac: 0.5, ValFrac: 0.2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		layers          int
		step, inference []int
	}{{2, []int{32, 5, 5}, []int{5}}, {1, []int{5, 5}, []int{5}}} {
		for _, dtype := range []string{DTypeFloat64, DTypeFloat32} {
			rec := &widthRecorder{segs: [][]int{nil}}
			for u := range ds.G.N {
				rec.rows = append(rec.rows, int32(u))
			}
			ds.G.SetApplyHook(rec)
			m, err := NewGCN(tc.layers)
			if err != nil {
				t.Fatal(err)
			}
			cfg := quickCfg()
			cfg.Epochs, cfg.DType, cfg.Hooks = 1, dtype, []train.Hook{rec}
			_, err = m.Fit(ds, cfg)
			ds.G.SetApplyHook(nil)
			if err != nil {
				t.Fatal(err)
			}
			// One step, one validation pass, then the final forward.
			want := [][]int{tc.step, tc.inference, tc.inference}
			if !slices.EqualFunc(rec.segs, want, slices.Equal) {
				t.Errorf("GCN-%dL %s propagated widths %v, want %v", tc.layers, dtype, rec.segs, want)
			}
		}
	}
}

// TestGCNRejectsDirectedGraph: GCNConvOf's backward pass uses Â for Âᵀ,
// so both GCN trainers refuse a directed graph before any batch trains.
func TestGCNRejectsDirectedGraph(t *testing.T) {
	ds := smallTask(t)
	b := graph.NewBuilder(ds.G.N)
	b.Directed = true
	for _, e := range ds.G.Edges() {
		if e.U < e.V || e.U%3 == 0 { // drop some reverse arcs
			b.AddWeightedEdge(e.U, e.V, e.W)
		}
	}
	directed := *ds
	directed.G = b.MustBuild()
	gcn, err := NewGCN(2)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewClusterGCN(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Trainer{gcn, cluster} {
		batches := &countHook{}
		cfg := quickCfg()
		cfg.Hooks = []train.Hook{batches}
		_, err := m.Fit(&directed, cfg)
		if err == nil || !strings.Contains(err.Error(), "undirected") {
			t.Errorf("%s on a directed graph: error %v, want one naming the undirected requirement", m.Name(), err)
		}
		if batches.n != 0 {
			t.Errorf("%s trained %d batches before rejecting the graph", m.Name(), batches.n)
		}
	}
}

// countHook counts training batches.
type countHook struct{ n int }

func (c *countHook) OnBatch(train.BatchEnd) { c.n++ }
func (c *countHook) OnEpoch(train.EpochEnd) {}

// valHook records each epoch's validation accuracy.
type valHook struct{ acc []float64 }

func (*valHook) OnBatch(train.BatchEnd)     {}
func (h *valHook) OnEpoch(e train.EpochEnd) { h.acc = append(h.acc, e.ValAcc) }

// explicitGCN2 is a trained 2-layer GCN's inference forward written out:
// p = Âx through a fresh operator, h = ReLU(pW₀ + b₀), then the output
// layer's own Forward.
func explicitGCN2[T tensor.Elem](net *nn.SequentialOf[T], ds *dataset.Dataset) *tensor.Mat[T] {
	var convs []*GCNConvOf[T]
	for _, l := range net.Layers {
		if c, ok := l.(*GCNConvOf[T]); ok {
			convs = append(convs, c)
		}
	}
	x := tensor.FromFloat64[T](ds.X)
	p := tensor.NewOf[T](x.Rows, x.Cols)
	graph.NewOperatorOf[T](ds.G, graph.NormSymmetric, true).ApplyInto(x, p)
	lin := convs[0].Lin
	h := tensor.NewOf[T](x.Rows, lin.OutF)
	tensor.MatMulInto(p, lin.W.Value, h)
	h.AddRowVector(lin.B.Value.Row(0))
	for i, v := range h.Data {
		if !(v > 0) {
			h.Data[i] = 0
		}
	}
	return convs[1].Forward(h, false).Clone()
}

// bitsEqual reports whether two matrices hold the same bits (±0 differ).
func bitsEqual[T tensor.Elem](a, b *tensor.Mat[T]) bool {
	return slices.EqualFunc(a.Data, b.Data, func(u, v T) bool {
		return math.Float64bits(float64(u)) == math.Float64bits(float64(v))
	})
}

// TestGCNEvalReusesAX: a GCN fit's validation passes and its final forward
// read the fit's one Âx. After 1, 2 and 3 epochs, the last validation
// accuracy, the report's accuracies and the logits of that forward are
// bitwise those of an explicit Lin(Âx)→ReLU→conv forward over the same
// weights, at both tiers.
func TestGCNEvalReusesAX(t *testing.T) {
	checkEvalReusesAX[float64](t, DTypeFloat64)
	checkEvalReusesAX[float32](t, DTypeFloat32)
}

func checkEvalReusesAX[T tensor.Elem](t *testing.T, dtype string) {
	ds := smallTask(t)
	for _, n := range []int{1, 2, 3} { // one Fit per length; train.Run drives each
		m, err := NewGCN(2)
		if err != nil {
			t.Fatal(err)
		}
		vals := &valHook{}
		cfg := quickCfg()
		cfg.Epochs, cfg.DType, cfg.Hooks = n, dtype, []train.Hook{vals}
		rep, err := m.Fit(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		net := m.st.(*gcnState[T]).net
		want := explicitGCN2(net, ds)
		if got, w := vals.acc[n-1], accuracyAt(want, ds.Labels, ds.ValIdx); got != w {
			t.Errorf("%s epoch %d: validation accuracy %v, explicit forward %v", dtype, n, got, w)
		}
		wantRep := Report{}
		fillAccuracies(func(idx []int) []int { return nn.Argmax(want.SelectRows(idx)) }, ds, &wantRep)
		if rep.TrainAcc != wantRep.TrainAcc || rep.ValAcc != wantRep.ValAcc || rep.TestAcc != wantRep.TestAcc || rep.TestF1 != wantRep.TestF1 {
			t.Errorf("%s after %d epochs: report %+v, explicit forward %+v", dtype, n, *rep, wantRep)
		}
		infer, _ := evalForward(net, graph.NewOperatorOf[T](ds.G, graph.NormSymmetric, true), tensor.FromFloat64[T](ds.X))
		if !bitsEqual(infer(), want) {
			t.Errorf("%s after %d epochs: the fit's inference forward differs from the explicit one", dtype, n)
		}
	}
}

// TestGCNPeakFloatsCountsHeldAX: a GCN whose first layer propagates first
// holds the fit's n×in Âx beside every layer's activations and gradients;
// one whose only layer narrows holds none.
func TestGCNPeakFloatsCountsHeldAX(t *testing.T) {
	ds := smallTask(t)
	n, in, c := ds.G.N, ds.X.Cols, ds.NumClasses
	cfg := quickCfg()
	cfg.Epochs = 1
	h := cfg.Hidden
	for _, tc := range []struct{ layers, want int }{
		{2, 2*n*(in+h+c) + n*in + 3*(in*h+h+h*c+c)},
		{1, 2*n*(in+c) + 3*(in*c+c)},
	} {
		m, err := NewGCN(tc.layers)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Fit(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.PeakFloats != tc.want {
			t.Errorf("GCN-%dL peak floats %d, want %d", tc.layers, rep.PeakFloats, tc.want)
		}
	}
}

// roundsHook records a cluster's completed exchange rounds at every epoch
// end, and advances its staleness epoch as gnntrain's shards do.
type roundsHook struct {
	c      *distnet.Cluster
	rounds []int64
}

func (*roundsHook) OnBatch(train.BatchEnd) {}
func (h *roundsHook) OnEpoch(e train.EpochEnd) {
	h.rounds = append(h.rounds, h.c.Stats().Rounds)
	h.c.SetEpoch(e.Epoch + 1)
}

// TestGCNDistRoundsPerEpoch: two in-process distnet shards train GCN-2L.
// An epoch exchanges 4 rounds (the step's 64-wide forward and 5-wide
// forward and backward, then validation's 5-wide output layer): the fit's
// Âx is computed locally and adds none, at fit start or after. Both
// shards' predictions equal the single-process run's.
func TestGCNDistRoundsPerEpoch(t *testing.T) {
	gen := func() *dataset.Dataset {
		ds, err := dataset.Generate(dataset.Config{
			Nodes: 200, Classes: 5, AvgDegree: 6, Homophily: 0.8,
			FeatureDim: 16, NoiseStd: 1, TrainFrac: 0.5, ValFrac: 0.2, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	cfg := quickCfg()
	cfg.Epochs, cfg.Patience = 4, 0
	single := gen()
	m, err := NewGCN(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(single, cfg); err != nil {
		t.Fatal(err)
	}
	want, err := m.Predict(single)
	if err != nil {
		t.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "dn") // sun_path caps at ~100 bytes
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	addrs := []string{"unix:" + dir + "/s0.sock", "unix:" + dir + "/s1.sock"}
	hooks := make([]*roundsHook, 2)
	preds := make([][]int, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for shard := range 2 {
		ds := gen()
		c, err := distnet.Open(distnet.Config{Shard: shard, N: 2, Addrs: addrs, Fingerprint: 0x49, PeerTimeout: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		parts := make([]int, ds.G.N)
		for u := range parts {
			parts[u] = u % 2
		}
		h, err := distnet.NewHook(c, &partition.Assignment{Parts: parts, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		h.Attach(ds.G)
		hooks[shard] = &roundsHook{c: c}
		wg.Add(1)
		//lint:ignore naked-go each goroutine is one shard, joined via wg
		go func() {
			defer wg.Done()
			defer func() { // an exchange failure panics out of ApplyInto
				if r := recover(); r != nil {
					errs[shard] = fmt.Errorf("%v", r)
				}
			}()
			m, err := NewGCN(2)
			if err != nil {
				errs[shard] = err
				return
			}
			cfg := cfg
			cfg.Hooks = []train.Hook{hooks[shard]}
			if _, errs[shard] = m.Fit(ds, cfg); errs[shard] == nil {
				preds[shard], errs[shard] = m.Predict(ds)
			}
		}()
	}
	wg.Wait()
	for shard, h := range hooks {
		if errs[shard] != nil {
			t.Fatalf("shard %d: %v", shard, errs[shard])
		}
		for e := 1; e < len(h.rounds); e++ {
			if d := h.rounds[e] - h.rounds[e-1]; d != 4 {
				t.Errorf("shard %d epoch %d: %d exchange rounds, want 4", shard, e, d)
			}
		}
		if h.rounds[0] != 4 {
			t.Errorf("shard %d: %d exchange rounds by the end of epoch 0, want 4", shard, h.rounds[0])
		}
		if !slices.Equal(preds[shard], want) {
			t.Errorf("shard %d predictions differ from the single-process run (fingerprint %016x, want %016x)",
				shard, PredictionFingerprint(preds[shard]), PredictionFingerprint(want))
		}
	}
}
