// Package linkpred implements link prediction over stored walk sets — the
// evaluation task of the subgraph-based representation learning systems
// (SUREL/SUREL+/GENTI, tutorial §3.3.3). A task hides a fraction of edges,
// samples non-edges as negatives, and asks a model to rank true pairs above
// false ones (ROC-AUC).
//
// Two predictors are provided:
//
//   - CommonNeighbors: the classic structural heuristic baseline.
//   - WalkFeatureModel: SUREL-style — each query pair is assembled by
//     joining the endpoints' stored walk sets, the joint landing-profile
//     features are pooled into a fixed-length vector, and a small MLP is
//     trained on labeled pairs. All graph access happens in the walk store;
//     training and inference are pure tensor operations.
package linkpred

import (
	"fmt"
	"math/rand/v2"

	"scalegnn/internal/graph"
	"scalegnn/internal/metrics"
	"scalegnn/internal/nn"
	"scalegnn/internal/par"
	"scalegnn/internal/subgraph"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// Task is a link-prediction split: observed graph plus labeled train/test
// pairs (label 1 = true edge, 0 = sampled non-edge).
type Task struct {
	// Observed is the graph with test-positive edges removed — the only
	// structure any model may use.
	Observed *graph.CSR

	TrainPairs  [][2]int
	TrainLabels []int
	TestPairs   [][2]int
	TestLabels  []int
}

// NewTask hides testFrac of the edges as test positives and trainFrac as
// train positives (disjoint sets, BOTH removed from the observed graph —
// if train positives stayed visible, a walk model would learn the "direct
// edge present" shortcut that cannot transfer to held-out test edges), and
// samples one negative (non-edge) per positive for both splits.
func NewTask(g *graph.CSR, testFrac, trainFrac float64, rng *rand.Rand) (*Task, error) {
	if !g.Undirected() {
		return nil, fmt.Errorf("linkpred: requires an undirected graph")
	}
	if testFrac <= 0 || trainFrac <= 0 || testFrac+trainFrac >= 1 {
		return nil, fmt.Errorf("linkpred: need testFrac, trainFrac > 0 with sum < 1, got %v/%v", testFrac, trainFrac)
	}
	edges := g.UndirectedEdges()
	if len(edges) < 10 {
		return nil, fmt.Errorf("linkpred: graph too small (%d edges)", len(edges))
	}
	perm := tensor.Perm(len(edges), rng)
	nTest := max(1, int(testFrac*float64(len(edges))))
	nTrain := max(1, int(trainFrac*float64(len(edges))))
	t := &Task{}
	b := graph.NewBuilder(g.N)
	for i, pi := range perm {
		e := edges[pi]
		switch {
		case i < nTest:
			t.TestPairs = append(t.TestPairs, [2]int{e.U, e.V})
			t.TestLabels = append(t.TestLabels, 1)
		case i < nTest+nTrain:
			t.TrainPairs = append(t.TrainPairs, [2]int{e.U, e.V})
			t.TrainLabels = append(t.TrainLabels, 1)
		default:
			b.AddWeightedEdge(e.U, e.V, e.W)
		}
	}
	observed, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("linkpred: observed graph: %w", err)
	}
	t.Observed = observed
	// Negatives: uniform non-edges of the FULL graph (so negatives are
	// genuinely false for both splits).
	sampleNeg := func(k int) ([][2]int, error) {
		out := make([][2]int, 0, k)
		for attempts := 0; len(out) < k; attempts++ {
			if attempts > 100*k {
				return nil, fmt.Errorf("linkpred: negative sampling stuck (graph too dense?)")
			}
			u, v := rng.IntN(g.N), rng.IntN(g.N)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			out = append(out, [2]int{u, v})
		}
		return out, nil
	}
	trainNeg, err := sampleNeg(len(t.TrainPairs))
	if err != nil {
		return nil, err
	}
	for _, p := range trainNeg {
		t.TrainPairs = append(t.TrainPairs, p)
		t.TrainLabels = append(t.TrainLabels, 0)
	}
	testNeg, err := sampleNeg(len(t.TestPairs))
	if err != nil {
		return nil, err
	}
	for _, p := range testNeg {
		t.TestPairs = append(t.TestPairs, p)
		t.TestLabels = append(t.TestLabels, 0)
	}
	return t, nil
}

// CommonNeighbors scores a pair by the number of shared neighbors in the
// observed graph — the heuristic baseline every subgraph model must beat.
// Pairs score independently into disjoint out[i] slots, so the loop chunks
// over internal/par with output bitwise identical to the sequential scan.
func CommonNeighbors(g *graph.CSR, pairs [][2]int) []float64 {
	out := make([]float64, len(pairs))
	par.Range(len(pairs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := pairs[i]
			a, b := g.Neighbors(p[0]), g.Neighbors(p[1])
			ai, bi := 0, 0
			count := 0
			for ai < len(a) && bi < len(b) {
				switch {
				case a[ai] == b[bi]:
					count++
					ai++
					bi++
				case a[ai] < b[bi]:
					ai++
				default:
					bi++
				}
			}
			out[i] = float64(count)
		}
	})
	return out
}

// WalkFeatureModel is the SUREL-style predictor.
type WalkFeatureModel struct {
	store *subgraph.WalkStore
	net   *nn.Sequential
	dim   int // pooled feature length
}

// Config controls the walk store and head.
type Config struct {
	Walks  int // walks per endpoint
	Length int // walk length
	Hidden int
	Epochs int
	LR     float64
	Seed   uint64
}

// DefaultConfig returns the settings used by the tests and example.
func DefaultConfig() Config {
	return Config{Walks: 40, Length: 3, Hidden: 32, Epochs: 60, LR: 0.01, Seed: 1}
}

// NewWalkFeatureModel builds the store over the observed graph.
func NewWalkFeatureModel(t *Task, cfg Config) (*WalkFeatureModel, error) {
	ws, err := subgraph.NewWalkStore(t.Observed, subgraph.WalkStoreConfig{Walks: cfg.Walks, Length: cfg.Length})
	if err != nil {
		return nil, fmt.Errorf("linkpred: walk store: %w", err)
	}
	// Pooled features: mean joint profile (2(L+1) columns) plus four
	// interaction scalars (common-node count, Jaccard, sum and max of
	// visiting-mass products).
	return &WalkFeatureModel{store: ws, dim: 2*(cfg.Length+1) + 4}, nil
}

// pairFeatures joins the endpoints' walk sets and pools the joint landing
// profiles into a fixed-length vector: the mean of each profile column,
// plus symmetric interaction scalars over each node's TOTAL visiting mass
// from u and from v — common-node count, Jaccard overlap, and the sum and
// max of mass products. The direct-edge signal lives in cross-step visits
// (u's step-1 walks land on v, whose own step-0 mass is 1), so interactions
// must compare total masses, not per-step columns.
func (m *WalkFeatureModel) pairFeatures(u, v int, rng *rand.Rand) ([]float64, error) {
	if err := m.store.Preprocess([]int{u, v}, rng); err != nil {
		return nil, err
	}
	jr, err := m.store.Join(u, v)
	if err != nil {
		return nil, err
	}
	cols := jr.Features.Cols // 2(L+1)
	half := cols / 2
	out := make([]float64, cols+4)
	n := float64(len(jr.Nodes))
	var common, sumProd, maxProd float64
	var fromU, fromV float64
	for i := 0; i < jr.Features.Rows; i++ {
		row := jr.Features.Row(i)
		var massU, massV float64
		for j := 0; j < half; j++ {
			out[j] += row[j] / n
			out[half+j] += row[half+j] / n
			massU += row[j]
			massV += row[half+j]
		}
		if massU > 0 {
			fromU++
		}
		if massV > 0 {
			fromV++
		}
		if massU > 0 && massV > 0 {
			common++
		}
		prod := massU * massV
		sumProd += prod
		if prod > maxProd {
			maxProd = prod
		}
	}
	out[cols] = common
	union := fromU + fromV - common
	if union > 0 {
		out[cols+1] = common / union
	}
	out[cols+2] = sumProd
	out[cols+3] = maxProd
	return out, nil
}

// featureMatrix assembles features for a pair list.
func (m *WalkFeatureModel) featureMatrix(pairs [][2]int, rng *rand.Rand) (*tensor.Matrix, error) {
	x := tensor.New(len(pairs), m.dim)
	for i, p := range pairs {
		f, err := m.pairFeatures(p[0], p[1], rng)
		if err != nil {
			return nil, fmt.Errorf("linkpred: pair (%d,%d): %w", p[0], p[1], err)
		}
		copy(x.Row(i), f)
	}
	return x, nil
}

// Fit trains the MLP head on the task's train pairs and returns the train
// AUC.
func (m *WalkFeatureModel) Fit(t *Task, cfg Config) (float64, error) {
	rng := tensor.NewRand(cfg.Seed)
	x, err := m.featureMatrix(t.TrainPairs, rng)
	if err != nil {
		return 0, err
	}
	m.net = nn.NewMLP(nn.MLPConfig{In: m.dim, Hidden: []int{cfg.Hidden}, Out: 2, Bias: true}, rng)
	opt := nn.NewAdam(cfg.LR)
	// Fixed-epoch full-batch schedule driven by the shared engine; the task
	// has no validation split, so Validate is a constant and Patience stays 0.
	_, err = train.Run(train.Config{Epochs: cfg.Epochs}, train.Spec{
		Step: func([]int) error {
			logits := m.net.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, t.TrainLabels)
			m.net.Backward(grad)
			opt.Step(m.net.Params())
			return nil
		},
		Validate: func() (float64, error) { return 0, nil },
	})
	if err != nil {
		return 0, err
	}
	scores := m.Scores(x)
	return metrics.AUC(scores, t.TrainLabels), nil
}

// Scores returns the positive-class probability for each feature row.
func (m *WalkFeatureModel) Scores(x *tensor.Matrix) []float64 {
	probs := nn.Softmax(m.net.Forward(x, false))
	out := make([]float64, probs.Rows)
	for i := range out {
		out[i] = probs.At(i, 1)
	}
	return out
}

// Evaluate computes test AUC.
func (m *WalkFeatureModel) Evaluate(t *Task, cfg Config) (float64, error) {
	if m.net == nil {
		return 0, fmt.Errorf("linkpred: Evaluate before Fit")
	}
	rng := tensor.NewRand(cfg.Seed + 1)
	x, err := m.featureMatrix(t.TestPairs, rng)
	if err != nil {
		return 0, err
	}
	return metrics.AUC(m.Scores(x), t.TestLabels), nil
}
