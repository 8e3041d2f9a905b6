package models

import (
	"fmt"

	"scalegnn/internal/dataset"
	"scalegnn/internal/nn"
	"scalegnn/internal/tensor"
)

// NAIResult reports node-adaptive inference (tutorial §3.3.1, NAI):
// instead of propagating every node the full K hops at inference, each node
// stops at the first hop whose prediction confidence clears a threshold.
// Hub-adjacent, well-separated nodes exit early; ambiguous nodes get the
// full propagation — trading a controlled amount of accuracy for
// proportionally less inference propagation.
type NAIResult struct {
	Pred []int
	// HopUsed[i] is the propagation depth at which node i exited.
	HopUsed []int
	// AvgHops is the mean exit depth — the inference-cost proxy
	// (propagation work is proportional to it).
	AvgHops float64
	// FullHops is the depth a non-adaptive model would always pay.
	FullHops int
}

// Speedup returns FullHops / AvgHops, the propagation-work saving.
func (r *NAIResult) Speedup() float64 {
	if r.AvgHops == 0 {
		return float64(r.FullHops)
	}
	return float64(r.FullHops) / r.AvgHops
}

// NAIPredict runs node-adaptive inference for a trained SGC model: hops[k]
// must hold the k-hop smoothed features Â^k X (k = 0..K, as produced by
// hopEmbeddings), and the model's trained head is evaluated on each hop in
// order. A node exits at hop k when its softmax confidence is at least
// threshold; remaining nodes exit at hop K.
//
// minHops delays gating until that much smoothing has happened — the head
// was trained on hops[K], and on nearly raw features (k=0) a linear head
// can be confidently wrong, so production NAI configurations gate only
// propagated embeddings.
//
// The head was trained on hops[K]; early exits reuse it on less-smoothed
// inputs — exactly NAI's gated truncation, which works because Â^k X for
// k < K differs from Â^K X only by residual high-frequency energy that
// confident nodes have already shed.
func NAIPredict(m *SGC, hops []*tensor.Matrix, threshold float64, minHops int) (*NAIResult, error) {
	if m.st == nil {
		return nil, fmt.Errorf("models: NAIPredict before Fit")
	}
	head, ok := m.st.(*headState[float64])
	if !ok {
		return nil, fmt.Errorf("models: NAIPredict: the head was trained at float32 but the hop embeddings are float64; fit with DType float64")
	}
	if len(hops) == 0 {
		return nil, fmt.Errorf("models: NAIPredict needs hop embeddings")
	}
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("models: NAIPredict threshold %v outside (0,1]", threshold)
	}
	if minHops < 0 || minHops >= len(hops) {
		return nil, fmt.Errorf("models: NAIPredict minHops %d outside [0,%d)", minHops, len(hops))
	}
	n := hops[0].Rows
	res := &NAIResult{
		Pred:     make([]int, n),
		HopUsed:  make([]int, n),
		FullHops: len(hops) - 1,
	}
	decided := make([]bool, n)
	remaining := n
	for k, h := range hops {
		if remaining == 0 {
			break
		}
		if k < minHops {
			continue
		}
		// Gather undecided nodes.
		idx := make([]int, 0, remaining)
		for i := 0; i < n; i++ {
			if !decided[i] {
				idx = append(idx, i)
			}
		}
		probs := nn.Softmax(head.net.Forward(h.SelectRows(idx), false))
		last := k == len(hops)-1
		for bi, i := range idx {
			row := probs.Row(bi)
			best, bestP := 0, row[0]
			for c, p := range row {
				if p > bestP {
					best, bestP = c, p
				}
			}
			if bestP >= threshold || last {
				decided[i] = true
				res.Pred[i] = best
				res.HopUsed[i] = k
				remaining--
			}
		}
	}
	var total float64
	for _, h := range res.HopUsed {
		total += float64(h)
	}
	res.AvgHops = total / float64(n)
	return res, nil
}

// HopEmbeddings exposes the [X, ÂX, …, Â^K X] precompute for NAIPredict and
// external analysis.
func HopEmbeddings(ds *dataset.Dataset, k int) []*tensor.Matrix {
	return hopEmbeddings[float64](ds, k)
}
