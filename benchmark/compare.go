package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartiles returns Q1, median, Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// PR driver uses; a sample of one is its own quartiles.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric over a workload's untraced runs, with the
// failure ratio of those runs.
func (w *workloadSet) values(metric string) (vals []float64, failRatio float64) {
	var attempted, failed int
	for _, r := range w.Runs {
		vals = append(vals, r.Metrics[metric])
		attempted += r.Attempted
		failed += r.Failed
	}
	return vals, ratio(float64(failed), float64(attempted))
}

// minRuns is the fewest untraced runs per workload a set needs before its
// quartiles say anything about its spread.
const minRuns = 4

// verdict judges candidate values vb against base values va of metric d.
// worsening is how far b's median is on the wrong side of a's, as a share
// of a's. unresolved: either side has fewer than minRuns runs, or the
// spread of either side's own repeats (IQR / median) exceeds the bound, so
// the medians cannot support either verdict. regressed: worsening beyond
// the metric's bound. ok: neither.
func verdict(va, vb []float64, d metricDef) string {
	a1, am, a3 := quartiles(va)
	b1, bm, b3 := quartiles(vb)
	worsening := ratio(bm, am) - 1
	if d.Better == "higher" {
		worsening = -worsening
	}
	spread := max(ratio(a3-a1, am), ratio(b3-b1, bm))
	switch {
	case min(len(va), len(vb)) < minRuns || spread > d.Bound:
		return "unresolved"
	case worsening > d.Bound:
		return "regressed"
	}
	return "ok"
}

// compareSets prints one row per workload x end-to-end metric for base set
// a and candidate set b, and returns the exit code: 1 when any row
// regressed or b failed a larger share of its operations, 2 when the sets
// were not taken with the same settings.
func compareSets(pathA, pathB string) int {
	a, err := readSet(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readSet(pathB)
	if err != nil {
		fatal(err)
	}
	pa, pb := a.Provenance, b.Provenance
	fmt.Printf("base a: %s (commit %s, seed %d, %v s, %d cores)\n", pathA, pa.Commit, pa.Seed, pa.Seconds, pa.NProc)
	fmt.Printf("cand b: %s (commit %s, seed %d, %v s, %d cores)\n", pathB, pb.Commit, pb.Seed, pb.Seconds, pb.NProc)
	if pa.Seed != pb.Seed || pa.Seconds != pb.Seconds {
		fmt.Fprintln(os.Stderr, "benchmark: the sets differ in seed or run length: not comparable")
		return 2
	}
	fmt.Printf("%-20s %-15s %4s %12s %25s %12s %25s %12s %7s  %s\n",
		"workload", "metric", "runs", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "b/a", "bound", "verdict")
	code := 0
	for _, wa := range a.Workloads {
		var wb *workloadSet
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Printf("%-20s missing from %s\n", wa.Name, pathB)
			code = 1
			continue
		}
		if wa.GOMAXPROCS != wb.GOMAXPROCS {
			fmt.Fprintf(os.Stderr, "benchmark: %s ran at GOMAXPROCS %d in a and %d in b: not comparable\n", wa.Name, wa.GOMAXPROCS, wb.GOMAXPROCS)
			return 2
		}
		var failA, failB float64
		for _, d := range endToEnd {
			va, fa := wa.values(d.Name)
			vb, fb := wb.values(d.Name)
			failA, failB = fa, fb
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			v := verdict(va, vb, d)
			if v == "regressed" {
				code = 1
			}
			fmt.Printf("%-20s %-15s %4s %12.5g %25s %12.5g %25s %12.4f %7.3f  %s\n",
				wa.Name, d.Name, fmt.Sprintf("%d/%d", len(va), len(vb)), am, fmt.Sprintf("[%.5g, %.5g]", a1, a3),
				bm, fmt.Sprintf("[%.5g, %.5g]", b1, b3), ratio(bm, am), d.Bound, v)
		}
		if failB > failA {
			fmt.Printf("%-20s ops_failed/ops_attempted rose from %.4f to %.4f\n", wa.Name, failA, failB)
			code = 1
		}
	}
	return code
}
