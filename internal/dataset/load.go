package dataset

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

// Load builds a dataset from an edge-list file (plus an optional label
// file, one class id per line) with synthetic class-conditional features,
// or generates a fully synthetic task when graphPath is empty. A snapshot's
// run spec (models.RunSpec) names these three arguments, and gnnserve
// rebuilds the training dataset from them; the run fingerprint folds in the
// dataset's ContentKey, so a file edited since training is refused.
func Load(graphPath, labelPath string, cfg Config) (*Dataset, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if graphPath == "" {
		return Generate(cfg)
	}
	f, err := os.Open(graphPath)
	if err != nil {
		return nil, err
	}
	//lint:ignore unchecked-error file is open read-only; Close cannot lose data
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		return nil, err
	}
	// With no arcs every aggregation is empty and a model trains on its
	// features alone, while EdgeHomophily reads 0 as if every edge crossed
	// classes.
	if len(g.Adj) == 0 {
		return nil, fmt.Errorf("dataset: %s has no arcs", graphPath)
	}
	if err := checkWeights(g); err != nil {
		return nil, err
	}
	var labels []int
	numClasses := cfg.Classes
	if labelPath != "" {
		labels, numClasses, err = readLabels(labelPath, g.N)
		if err != nil {
			return nil, err
		}
	} else {
		// No labels: synthesize block labels by round-robin (toy fallback).
		labels = make([]int, g.N)
		for i := range labels {
			labels[i] = i % numClasses
		}
	}
	rng := tensor.NewRand(cfg.Seed)
	x := tensor.RandNormal(g.N, cfg.FeatureDim, cfg.NoiseStd, rng)
	means := tensor.RandNormal(numClasses, cfg.FeatureDim, 1, rng)
	for i, y := range labels {
		row := x.Row(i)
		for j, m := range means.Row(y) {
			row[j] += m
		}
	}
	train, val, test := Split(g.N, cfg.TrainFrac, cfg.ValFrac, rng)
	return &Dataset{
		G: g, X: x, Labels: labels, NumClasses: numClasses,
		TrainIdx: train, ValIdx: val, TestIdx: test,
	}, nil
}

// checkWeights rejects a negative or infinite arc weight, after parallel
// copies are summed (finite copies can sum to +Inf): every model
// normalizes by 1/√deg or 1/deg, which such a weight turns into NaN
// coefficients and a model that predicts one class.
func checkWeights(g *graph.CSR) error {
	if g.Weights == nil {
		return nil
	}
	for u := range g.N {
		for k := g.Offsets[u]; k < g.Offsets[u+1]; k++ {
			if w := g.Weights[k]; w < 0 || math.IsInf(w, 1) {
				return fmt.Errorf("dataset: arc %d→%d has weight %g; edge weights must be finite and ≥ 0", u, g.Adj[k], w)
			}
		}
	}
	return nil
}

// readLabels parses one integer class per line; class count is
// max(label)+1.
func readLabels(path string, n int) ([]int, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	//lint:ignore unchecked-error file is open read-only; Close cannot lose data
	defer f.Close()
	sc := bufio.NewScanner(f)
	labels := make([]int, 0, n)
	maxLabel := 0
	for sc.Scan() {
		y, err := strconv.Atoi(string(sc.Bytes())) // converted on the stack: no allocation per line
		if err != nil {
			return nil, 0, fmt.Errorf("line %d: %w", len(labels)+1, err)
		}
		labels = append(labels, y)
		if y > maxLabel {
			maxLabel = y
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if len(labels) != n {
		return nil, 0, fmt.Errorf("%d labels for %d nodes", len(labels), n)
	}
	return labels, maxLabel + 1, nil
}
