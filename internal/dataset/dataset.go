// Package dataset generates synthetic node-classification benchmarks with
// directly controllable difficulty knobs. The tutorial's evaluation
// workloads (Papers100M-class citation graphs, heterophilous social graphs)
// are not available offline, so every experiment runs on stochastic block
// model graphs with class-conditional Gaussian features where the
// controlling variable — size, degree, homophily, feature noise — can be
// swept exactly. See DESIGN.md "Substitutions" for why this preserves the
// claims under test.
package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

// Dataset is a node-classification task.
type Dataset struct {
	G          *graph.CSR
	X          *tensor.Matrix // node features, n x d
	Labels     []int          // class per node
	NumClasses int

	TrainIdx, ValIdx, TestIdx []int
}

// ContentKey hashes everything a trained model depends on — the CSR arrays,
// the feature bits, the labels and the three splits — so datasets of equal
// shape but different content get different keys: FNV-1a, one multiply per
// 64-bit word, each array's length first (len(X.Data)/N is the width).
func (d *Dataset) ContentKey() uint64 {
	h := foldWords(14695981039346656037, d.G.Offsets)
	h = foldWords(h, d.G.Adj)
	h = foldFloats(h, d.G.Weights)
	h = foldFloats(h, d.X.Data)
	for _, s := range [][]int{d.Labels, d.TrainIdx, d.ValIdx, d.TestIdx} {
		h = foldWords(h, s)
	}
	return h
}

const fnvPrime64 = 1099511628211

func foldWords[T int | int32 | int64](h uint64, ws []T) uint64 {
	h = (h ^ uint64(len(ws))) * fnvPrime64
	for _, w := range ws {
		h = (h ^ uint64(w)) * fnvPrime64
	}
	return h
}

func foldFloats(h uint64, fs []float64) uint64 {
	h = (h ^ uint64(len(fs))) * fnvPrime64
	for _, f := range fs {
		h = (h ^ math.Float64bits(f)) * fnvPrime64
	}
	return h
}

// Config controls generation.
type Config struct {
	Nodes      int
	Classes    int
	AvgDegree  float64
	Homophily  float64 // fraction of edges inside a class, in [0,1]
	FeatureDim int
	// NoiseStd scales the Gaussian noise added to the unit-separated class
	// means; higher values force models to rely on graph structure.
	NoiseStd float64
	// TrainFrac/ValFrac split nodes (remainder is test).
	TrainFrac, ValFrac float64
	Seed               uint64
}

// Generate builds the graph, features, labels, and splits.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("dataset: need >= 2 classes, got %d", cfg.Classes)
	}
	if cfg.FeatureDim < 1 {
		return nil, fmt.Errorf("dataset: need >= 1 feature dim, got %d", cfg.FeatureDim)
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	rng := tensor.NewRand(cfg.Seed)
	g, labels, err := graph.SBM(graph.SBMConfig{
		Nodes: cfg.Nodes, Blocks: cfg.Classes,
		AvgDegree: cfg.AvgDegree, Homophily: cfg.Homophily,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("dataset: graph generation: %w", err)
	}
	x := classFeatures(labels, cfg.Classes, cfg.FeatureDim, cfg.NoiseStd, rng)
	ds := &Dataset{G: g, X: x, Labels: labels, NumClasses: cfg.Classes}
	ds.TrainIdx, ds.ValIdx, ds.TestIdx = Split(cfg.Nodes, cfg.TrainFrac, cfg.ValFrac, rng)
	return ds, nil
}

// check holds what Generate and Load both read of cfg: split fractions
// that are >= 0 and sum to at most 1, and a finite noise std >= 0. Each
// test is written so that NaN fails it.
func (cfg Config) check() error {
	if !(cfg.TrainFrac >= 0 && cfg.ValFrac >= 0 && cfg.TrainFrac+cfg.ValFrac <= 1) {
		return fmt.Errorf("dataset: bad split fractions %v/%v", cfg.TrainFrac, cfg.ValFrac)
	}
	if !(cfg.NoiseStd >= 0 && cfg.NoiseStd <= math.MaxFloat64) {
		return fmt.Errorf("dataset: noise std %v is not a finite number >= 0", cfg.NoiseStd)
	}
	return nil
}

// classFeatures draws per-class unit-norm random means and adds N(0, std²)
// noise per node.
func classFeatures(labels []int, classes, dim int, std float64, rng *rand.Rand) *tensor.Matrix {
	means := tensor.RandNormal(classes, dim, 1, rng)
	for c := 0; c < classes; c++ {
		tensor.Normalize(means.Row(c))
	}
	x := tensor.RandNormal(len(labels), dim, std, rng)
	for i, c := range labels {
		row := x.Row(i)
		for j, m := range means.Row(c) {
			row[j] += m
		}
	}
	return x
}

// Split partitions [0, n) into train/val/test index sets by shuffled
// assignment.
func Split(n int, trainFrac, valFrac float64, rng *rand.Rand) (train, val, test []int) {
	perm := tensor.Perm(n, rng)
	nTrain := int(trainFrac * float64(n))
	nVal := int(valFrac * float64(n))
	train = append([]int(nil), perm[:nTrain]...)
	val = append([]int(nil), perm[nTrain:nTrain+nVal]...)
	test = append([]int(nil), perm[nTrain+nVal:]...)
	return train, val, test
}

// EdgeHomophily measures the fraction of undirected edges joining
// same-label endpoints — the empirical homophily h of the generated graph.
func EdgeHomophily(g *graph.CSR, labels []int) float64 {
	edges := g.UndirectedEdges()
	if len(edges) == 0 {
		return 0
	}
	same := 0
	for _, e := range edges {
		if labels[e.U] == labels[e.V] {
			same++
		}
	}
	return float64(same) / float64(len(edges))
}

// LabelsAt gathers labels at the given node indices.
func LabelsAt(labels []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, v := range idx {
		out[i] = labels[v]
	}
	return out
}
