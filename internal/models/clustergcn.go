package models

import (
	"fmt"
	"time"

	"scalegnn/internal/ckpt"
	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/metrics"
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

	lastPred []int // full-graph predictions cached by Fit; nil before Fit
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

// clusterBatch is one cluster's training context: its features, labels
// and training positions, and its own GCN over the cluster's induced
// subgraph — every cluster's stack runs on the same shared Linears, and
// keeps its own ReLUs and propagation scratch across epochs.
type clusterBatch[T tensor.Elem] struct {
	net      *nn.SequentialOf[T]
	x        *tensor.Mat[T]
	labels   []int
	ids      []int // original node ID per cluster-local index
	trainIdx []int // positions within the cluster that are training nodes
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
	// Shared weights across clusters (the whole point): one Linear per
	// layer applied inside whichever cluster is active.
	lins := gcnLinears[T](m.Layers, ds, cfg, rng)
	x := tensor.FromFloat64[T](ds.X)
	batches := make([]*clusterBatch[T], 0, m.Clusters)
	maxCluster := 0
	for p := range subs {
		if subs[p].N == 0 {
			continue
		}
		cb := &clusterBatch[T]{
			net:    gcnStack(graph.NewOperatorOf[T](subs[p], graph.NormSymmetric, true), lins, 0, nil),
			x:      x.SelectRows(ids[p]),
			labels: dataset.LabelsAt(ds.Labels, ids[p]),
			ids:    ids[p],
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

	var params []*nn.ParamOf[T]
	for _, l := range lins {
		params = append(params, l.Params()...)
	}
	opt := nn.NewAdamOf[T](cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	valLabels := dataset.LabelsAt(ds.Labels, ds.ValIdx)
	defer opt.Reset()
	err = runLoop(m.Name(), ds, cfg, pcg, rep, train.SpecOf[T]{
		Source: train.NewBatches(rangeIdx(len(batches)), 1), // one cluster per batch
		Step: func(ids []int) error {
			cb := batches[ids[0]]
			if len(cb.trainIdx) == 0 {
				return nil
			}
			_, grad := maskedLoss(cb.net.Forward(cb.x, true), cb.labels, cb.trainIdx)
			cb.net.Backward(grad) // nil: layer 0 reads no ∂L/∂X, so no SpMM for it
			tensor.PutBufOf(grad)
			opt.Step(params)
			return nil
		},
		Validate: func() (float64, error) {
			return metrics.Accuracy(dataset.LabelsAt(clusterPredictAll(batches, ds.G.N), ds.ValIdx), valLabels), nil
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

	pred := clusterPredictAll(batches, ds.G.N)
	fillAccuracies(func(idx []int) []int {
		return dataset.LabelsAt(pred, idx)
	}, ds, rep)
	return pred, nil
}

// clusterPredictAll runs cluster-wise inference, mapping back to original
// IDs.
func clusterPredictAll[T tensor.Elem](batches []*clusterBatch[T], n int) []int {
	pred := make([]int, n)
	for _, cb := range batches {
		p := nn.Argmax(cb.net.Forward(cb.x, false))
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
