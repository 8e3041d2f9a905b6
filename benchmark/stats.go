package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf times fn reps times and returns the median in milliseconds.
func medianOf(reps int, fn func()) float64 {
	t := make([]float64, reps)
	for i := range t {
		start := time.Now()
		fn()
		t[i] = ms(time.Since(start))
	}
	return median(t)
}

// rateWindows is how many equal windows a measured phase is cut into for
// work_per_s: the rate is computed per window and the median window is
// reported. A window's rate is a mean, so cost that only some ops pay (a
// GC cycle, a hot-swap, every-k-epoch work) counts in it; the median over
// windows keeps one burst of host noise from deciding the run.
const rateWindows = 6

// windows cuts v into rateWindows contiguous slices of equal length
// (dropping the remainder), or into single samples when v is shorter.
func windows(v []float64) [][]float64 {
	k := max(len(v)/rateWindows, 1)
	var out [][]float64
	for lo := 0; lo+k <= len(v) && len(out) < rateWindows; lo += k {
		out = append(out, v[lo:lo+k])
	}
	return out
}
