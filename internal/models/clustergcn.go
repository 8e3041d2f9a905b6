package models

import (
	"fmt"
	"time"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/nn"
	"scalegnn/internal/partition"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// ClusterGCN trains a GCN with partition-based mini-batches (§3.1.2 graph
// partition): the graph is split into clusters once; each step runs full
// GCN forward/backward inside one cluster's induced subgraph. Memory scales
// with the largest cluster, not the graph, at the cost of dropping
// inter-cluster edges from the gradient.
type ClusterGCN struct {
	Layers   int
	Clusters int

	// trained state
	lastPred []int // full-graph predictions cached by Fit
}

// NewClusterGCN constructs the trainer.
func NewClusterGCN(layers, clusters int) (*ClusterGCN, error) {
	if layers < 1 {
		return nil, fmt.Errorf("models: ClusterGCN needs >= 1 layer, got %d", layers)
	}
	if clusters < 1 {
		return nil, fmt.Errorf("models: ClusterGCN needs >= 1 cluster, got %d", clusters)
	}
	return &ClusterGCN{Layers: layers, Clusters: clusters}, nil
}

// Name implements Trainer.
func (m *ClusterGCN) Name() string { return fmt.Sprintf("ClusterGCN-%dL-c%d", m.Layers, m.Clusters) }

// clusterBatch holds one cluster's precomputed training context, including
// its persistent activation modules and workspace-pooled propagation
// buffers so repeated visits to the cluster reallocate nothing.
type clusterBatch[T tensor.Elem] struct {
	op       *graph.OperatorOf[T]
	x        *tensor.Mat[T]
	labels   []int
	ids      []int // original node ID per cluster-local index
	trainIdx []int // positions within the cluster that are training nodes

	relus  []*nn.ReLUOf[T]   // one per hidden layer, reused across epochs
	px, gx []tensor.BufOf[T] // per-layer forward/backward propagation scratch
}

// Fit partitions the graph and cycles clusters as mini-batches, at the tier
// selected by cfg.DType.
func (m *ClusterGCN) Fit(ds *dataset.Dataset, cfg TrainConfig) (*Report, error) {
	return atTier(m, &m.lastPred, ds, cfg, nil, fitClusterGCN[float64], fitClusterGCN[float32])
}

// fitClusterGCN returns the full-graph predictions Predict serves.
func fitClusterGCN[T tensor.Elem](m *ClusterGCN, ds *dataset.Dataset, cfg TrainConfig, _ *ckpt.Snapshot, rep *Report) ([]int, error) {
	pcg, rng := newRunRNG(cfg.Seed)

	preStart := time.Now()
	assign, err := partition.Multilevel(ds.G, m.Clusters, max(ds.G.N/20, m.Clusters), 3, rng)
	if err != nil {
		return nil, fmt.Errorf("models: ClusterGCN partition: %w", err)
	}
	subs, ids := partition.Subgraphs(ds.G, assign)
	isTrain := make([]bool, ds.G.N)
	for _, v := range ds.TrainIdx {
		isTrain[v] = true
	}
	x := tensor.FromFloat64[T](ds.X)
	batches := make([]*clusterBatch[T], 0, m.Clusters)
	maxCluster := 0
	for p := range subs {
		if subs[p].N == 0 {
			continue
		}
		cb := &clusterBatch[T]{
			op:     graph.NewOperatorOf[T](subs[p], graph.NormSymmetric, true),
			x:      x.SelectRows(ids[p]),
			labels: dataset.LabelsAt(ds.Labels, ids[p]),
			ids:    ids[p],
			relus:  make([]*nn.ReLUOf[T], m.Layers-1),
			px:     make([]tensor.BufOf[T], m.Layers),
			gx:     make([]tensor.BufOf[T], m.Layers),
		}
		for l := range cb.relus {
			cb.relus[l] = nn.NewReLUOf[T]()
		}
		for i, orig := range ids[p] {
			if isTrain[orig] {
				cb.trainIdx = append(cb.trainIdx, i)
			}
		}
		batches = append(batches, cb)
		if subs[p].N > maxCluster {
			maxCluster = subs[p].N
		}
	}
	rep.Precompute = time.Since(preStart)

	// Shared weights across clusters (the whole point): one Linear per
	// layer applied inside whichever cluster is active.
	lins := make([]*nn.LinearOf[T], m.Layers)
	in := ds.X.Cols
	for l := 0; l < m.Layers; l++ {
		out := cfg.Hidden
		if l == m.Layers-1 {
			out = ds.NumClasses
		}
		lins[l] = nn.NewLinearOf[T](in, out, true, rng)
		in = out
	}
	lins[0].NoInputGrad = true // layer 0's input is the cluster's features
	var params []*nn.ParamOf[T]
	for _, l := range lins {
		params = append(params, l.Params()...)
	}
	opt := nn.NewAdamOf[T](cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	forward := func(cb *clusterBatch[T], training bool) (*tensor.Mat[T], []*nn.ReLUOf[T]) {
		h := cb.x
		for l := 0; l < m.Layers; l++ {
			p := cb.px[l].Next(h.Rows, h.Cols)
			cb.op.ApplyInto(h, p)
			h = lins[l].Forward(p, training)
			if l != m.Layers-1 {
				h = cb.relus[l].Forward(h, training)
			}
		}
		return h, cb.relus
	}

	defer opt.Reset()
	err = runLoop(m.Name(), ds, cfg, pcg, rng, rep, train.SpecOf[T]{
		Source: train.NewClusterBatchesOf[T](len(batches)),
		Step: func(b train.BatchOf[T]) error {
			cb := batches[b.Cluster]
			if len(cb.trainIdx) == 0 {
				return nil
			}
			logits, relus := forward(cb, true)
			_, lossGrad := maskedLoss(logits, cb.labels, cb.trainIdx)
			grad := lossGrad
			for l := m.Layers - 1; l >= 0; l-- {
				if l != m.Layers-1 {
					grad = relus[l].Backward(grad)
				}
				g := lins[l].Backward(grad)
				if g == nil {
					break // layer 0: nobody reads ∂L/∂X, so no SpMM for it
				}
				gx := cb.gx[l].Next(g.Rows, g.Cols)
				cb.op.ApplyInto(g, gx)
				grad = gx
			}
			tensor.PutBufOf(lossGrad)
			opt.Step(params)
			return nil
		},
		Validate: func() (float64, error) {
			return clusterValAccuracy(batches, ds, forward), nil
		},
		Params:    params,
		Optimizer: opt,
		PeakFloats: func() int {
			nParams := 0
			for _, p := range params {
				nParams += p.NumValues()
			}
			return 2*maxCluster*(ds.X.Cols+(m.Layers-1)*cfg.Hidden+ds.NumClasses) + nParams*3
		},
	})
	if err != nil {
		return nil, err
	}

	pred := clusterPredictAll(batches, ds, forward)
	fillAccuracies(func(idx []int) []int {
		out := make([]int, len(idx))
		for i, v := range idx {
			out[i] = pred[v]
		}
		return out
	}, ds, rep)
	return pred, nil
}

func clusterValAccuracy[T tensor.Elem](batches []*clusterBatch[T], ds *dataset.Dataset, forward func(*clusterBatch[T], bool) (*tensor.Mat[T], []*nn.ReLUOf[T])) float64 {
	pred := clusterPredictAll(batches, ds, forward)
	correct, total := 0, 0
	for _, v := range ds.ValIdx {
		total++
		if pred[v] == ds.Labels[v] {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// clusterPredictAll runs cluster-wise inference, mapping back to original
// IDs.
func clusterPredictAll[T tensor.Elem](batches []*clusterBatch[T], ds *dataset.Dataset, forward func(*clusterBatch[T], bool) (*tensor.Mat[T], []*nn.ReLUOf[T])) []int {
	pred := make([]int, ds.G.N)
	for _, cb := range batches {
		logits, _ := forward(cb, false)
		p := nn.Argmax(logits)
		for i, orig := range cb.ids {
			pred[orig] = p[i]
		}
	}
	return pred
}

// Predict implements Trainer.
func (m *ClusterGCN) Predict(ds *dataset.Dataset) ([]int, error) {
	if m.lastPred == nil {
		return nil, fmt.Errorf("models: ClusterGCN.Predict before Fit")
	}
	return m.lastPred, nil
}
