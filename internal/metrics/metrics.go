// Package metrics provides the evaluation metrics shared by every
// experiment: classification accuracy and macro-F1, sample quantiles, and
// ROC AUC.
package metrics

import (
	"fmt"
	"sort"
)

// Accuracy returns the fraction of predictions equal to the labels.
func Accuracy(pred, labels []int) float64 {
	if len(pred) != len(labels) {
		panic(fmt.Sprintf("metrics: %d predictions vs %d labels", len(pred), len(labels)))
	}
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// confusion builds the numClasses x numClasses confusion matrix
// (rows = true class, cols = predicted class). Out-of-range entries are
// ignored.
func confusion(pred, labels []int, numClasses int) [][]int {
	m := make([][]int, numClasses)
	for i := range m {
		m[i] = make([]int, numClasses)
	}
	for i, p := range pred {
		y := labels[i]
		if y >= 0 && y < numClasses && p >= 0 && p < numClasses {
			m[y][p]++
		}
	}
	return m
}

// MacroF1 returns the unweighted mean of per-class F1 scores. Classes with
// no true or predicted instances contribute F1 = 0 (the strict convention).
func MacroF1(pred, labels []int, numClasses int) float64 {
	if numClasses == 0 {
		return 0
	}
	cm := confusion(pred, labels, numClasses)
	var sum float64
	for c := 0; c < numClasses; c++ {
		tp := cm[c][c]
		var fp, fn int
		for k := 0; k < numClasses; k++ {
			if k != c {
				fp += cm[k][c]
				fn += cm[c][k]
			}
		}
		if tp == 0 {
			continue // precision/recall both 0 → F1 0
		}
		precision := float64(tp) / float64(tp+fp)
		recall := float64(tp) / float64(tp+fn)
		sum += 2 * precision * recall / (precision + recall)
	}
	return sum / float64(numClasses)
}

// Quantiles returns the requested quantiles (e.g. 0.5, 0.99) of a sample
// slice, by sorting a copy. Used for per-node accuracy breakdowns.
func Quantiles(samples []float64, qs ...float64) []float64 {
	if len(samples) == 0 {
		return make([]float64, len(qs))
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		idx := int(q * float64(len(s)-1))
		out[i] = s[idx]
	}
	return out
}

// AUC computes the area under the ROC curve for binary labels (1 =
// positive) given real-valued scores, handling score ties by the standard
// midrank convention. Returns 0.5 when either class is empty — the
// link-prediction metric of the subgraph-based systems (§3.3.3).
func AUC(scores []float64, labels []int) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: %d scores vs %d labels", len(scores), len(labels)))
	}
	type pair struct {
		s float64
		y int
	}
	ps := make([]pair, len(scores))
	nPos, nNeg := 0, 0
	for i, s := range scores {
		ps[i] = pair{s, labels[i]}
		if labels[i] == 1 {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].s < ps[j].s })
	// Midranks over tied scores.
	var sumPosRank float64
	i := 0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		midrank := float64(i+j+1) / 2 // ranks are 1-based: (i+1 + j) / 2
		for k := i; k < j; k++ {
			if ps[k].y == 1 {
				sumPosRank += midrank
			}
		}
		i = j
	}
	return (sumPosRank - float64(nPos)*float64(nPos+1)/2) / (float64(nPos) * float64(nNeg))
}
