package ppr

import (
	"math"
	"testing"
	"testing/quick"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

// defaultConfig is α = 0.15 (the APPNP default), ε = 1e-6, at most 100
// power-iteration rounds.
func defaultConfig() Config {
	return Config{Alpha: 0.15, Epsilon: 1e-6, MaxIter: 100, Tol: 1e-9}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestPowerIterationSumsToOne(t *testing.T) {
	rng := tensor.NewRand(1)
	g := graph.BarabasiAlbert(200, 3, rng)
	p, iters, converged, err := PowerIteration(g, 0, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 {
		t.Error("no iterations performed")
	}
	if !converged {
		t.Error("expected convergence within default MaxIter")
	}
	if math.Abs(sum(p)-1) > 1e-6 {
		t.Errorf("PPR mass = %v, want 1", sum(p))
	}
	for i, v := range p {
		if v < 0 {
			t.Fatalf("negative score at %d: %v", i, v)
		}
	}
}

// TestPowerIterationTruncationSignaled verifies the converged flag: a
// one-round cap on a graph whose PPR needs many rounds must report
// converged=false, and relaxing the cap must flip it to true with a
// different (more accurate) vector.
func TestPowerIterationTruncationSignaled(t *testing.T) {
	rng := tensor.NewRand(7)
	g := graph.BarabasiAlbert(300, 3, rng)
	tight := Config{Alpha: 0.1, MaxIter: 1, Tol: 1e-12}
	pTrunc, iters, converged, err := PowerIteration(g, 0, tight)
	if err != nil {
		t.Fatal(err)
	}
	if converged {
		t.Fatalf("MaxIter=1 reported converged (iters=%d)", iters)
	}
	if iters != 1 {
		t.Fatalf("iters = %d, want 1 under MaxIter=1", iters)
	}
	loose := tight
	loose.MaxIter = 1000
	pFull, _, converged, err := PowerIteration(g, 0, loose)
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatal("MaxIter=1000 did not converge")
	}
	var diff float64
	for i := range pFull {
		diff += math.Abs(pFull[i] - pTrunc[i])
	}
	if diff < tight.Tol {
		t.Fatalf("truncated and converged vectors agree to %v — truncation test is vacuous", diff)
	}
}

func TestPowerIterationStarExact(t *testing.T) {
	// On a star with hub 0, the PPR from the hub has closed form:
	// walk alternates hub->leaf->hub. pi(hub) = α/(1-(1-α)²)·... easier:
	// pi(hub) = α + (1-α)² pi(hub) => pi(hub) = α / (1 - (1-α)²) · (α + ...)
	// Derive directly: from hub, walk is at hub at even steps, uniform leaf
	// at odd steps. pi(hub) = α Σ (1-α)^{2k} = α / (1-(1-α)²).
	g, err := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	alpha := 0.2
	cfg := Config{Alpha: alpha, MaxIter: 500, Tol: 1e-14}
	p, _, _, err := PowerIteration(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantHub := alpha / (1 - (1-alpha)*(1-alpha))
	if math.Abs(p[0]-wantHub) > 1e-9 {
		t.Errorf("pi(hub) = %v, want %v", p[0], wantHub)
	}
	wantLeaf := (1 - wantHub) / 4
	for i := 1; i < 5; i++ {
		if math.Abs(p[i]-wantLeaf) > 1e-9 {
			t.Errorf("pi(leaf %d) = %v, want %v", i, p[i], wantLeaf)
		}
	}
}

func TestPowerIterationValidation(t *testing.T) {
	g := graph.Path(3)
	if _, _, _, err := PowerIteration(g, -1, defaultConfig()); err == nil {
		t.Error("negative source should error")
	}
	if _, _, _, err := PowerIteration(g, 0, Config{Alpha: 0, MaxIter: 10}); err == nil {
		t.Error("alpha=0 should error")
	}
	if _, _, _, err := PowerIteration(g, 0, Config{Alpha: 1.5, MaxIter: 10}); err == nil {
		t.Error("alpha>1 should error")
	}
}

func TestForwardPushInvariant(t *testing.T) {
	// Push invariant: estimate + residual mass == 1 throughout (reserve plus
	// all remaining residual accounts for the full probability mass).
	rng := tensor.NewRand(2)
	g := graph.BarabasiAlbert(300, 4, rng)
	res, err := ForwardPush(g, 7, Config{Alpha: 0.15, Epsilon: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	total := sum(res.Estimate) + sum(res.Residual)
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("estimate+residual mass = %v, want 1", total)
	}
	if res.Pushes == 0 {
		t.Error("no pushes performed")
	}
}

func TestForwardPushApproximationBound(t *testing.T) {
	rng := tensor.NewRand(3)
	g := graph.BarabasiAlbert(300, 4, rng)
	eps := 1e-5
	res, err := ForwardPush(g, 0, Config{Alpha: 0.15, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	exact, _, _, err := PowerIteration(g, 0, Config{Alpha: 0.15, MaxIter: 1000, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	// Theory: |pi(v) - p(v)| <= eps * deg(v) — check with small slack for
	// power-iteration truncation.
	for v := range exact {
		bound := eps*float64(g.Degree(v)) + 1e-9
		if diff := math.Abs(exact[v] - res.Estimate[v]); diff > bound {
			t.Fatalf("node %d: |exact-push| = %v > eps*deg = %v", v, diff, bound)
		}
	}
	// Residuals must respect the stopping rule.
	for v, r := range res.Residual {
		if r >= eps*float64(g.Degree(v)) && g.Degree(v) > 0 {
			t.Fatalf("node %d residual %v violates threshold", v, r)
		}
	}
}

func TestForwardPushLocality(t *testing.T) {
	// With a loose epsilon, push on a large graph should touch far fewer
	// nodes than n — the sublinear-complexity claim of SCARA-style methods.
	rng := tensor.NewRand(4)
	g := graph.BarabasiAlbert(20000, 5, rng)
	res, err := ForwardPush(g, 11, Config{Alpha: 0.2, Epsilon: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, v := range res.Estimate {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero > g.N/10 {
		t.Errorf("push touched %d of %d nodes; expected local support", nonzero, g.N)
	}
}

func TestForwardPushValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := ForwardPush(g, 0, Config{Alpha: 0.15, Epsilon: 0}); err == nil {
		t.Error("epsilon=0 should error")
	}
	if _, err := ForwardPush(g, 9, Config{Alpha: 0.15, Epsilon: 1e-4}); err == nil {
		t.Error("out-of-range source should error")
	}
}

func TestMonteCarloConvergesToExact(t *testing.T) {
	rng := tensor.NewRand(5)
	g := graph.ErdosRenyi(50, 150, rng)
	exact, _, _, err := PowerIteration(g, 3, Config{Alpha: 0.2, MaxIter: 1000, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarlo(g, 3, 200000, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum(mc)-1) > 1e-9 {
		t.Errorf("MC mass = %v", sum(mc))
	}
	var maxErr float64
	for i := range exact {
		if d := math.Abs(exact[i] - mc[i]); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 0.01 {
		t.Errorf("MC max error %v with 2e5 walks", maxErr)
	}
}

func TestMonteCarloErrorShrinksWithWalks(t *testing.T) {
	rng := tensor.NewRand(6)
	g := graph.BarabasiAlbert(100, 3, rng)
	exact, _, _, _ := PowerIteration(g, 0, Config{Alpha: 0.2, MaxIter: 1000, Tol: 1e-13})
	l1 := func(walks int) float64 {
		mc, err := MonteCarlo(g, 0, walks, 0.2, tensor.NewRand(77))
		if err != nil {
			t.Fatal(err)
		}
		var e float64
		for i := range exact {
			e += math.Abs(exact[i] - mc[i])
		}
		return e
	}
	small, large := l1(500), l1(50000)
	if large >= small {
		t.Errorf("error did not shrink: %v (500 walks) vs %v (50000 walks)", small, large)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	g := graph.Path(3)
	rng := tensor.NewRand(1)
	if _, err := MonteCarlo(g, 0, 10, 0, rng); err == nil {
		t.Error("alpha=0 should error")
	}
	if _, err := MonteCarlo(g, 5, 10, 0.5, rng); err == nil {
		t.Error("bad source should error")
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0, 0.5, 0.3, 0.5}
	top := TopK(scores, 3)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	// Tie between nodes 2 and 4 at 0.5: node 2 first.
	if top[0].Node != 2 || top[1].Node != 4 || top[2].Node != 3 {
		t.Errorf("TopK order = %+v", top)
	}
	// k exceeding nonzero count truncates.
	if got := TopK([]float64{0, 1}, 5); len(got) != 1 {
		t.Errorf("TopK over-k = %+v", got)
	}
}

// Property: on any connected graph, the source has the largest PPR score
// for reasonable alpha (locality of personalized PageRank).
func TestSourceDominatesProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := tensor.NewRand(uint64(seed) + 100)
		g := graph.BarabasiAlbert(60, 2, rng)
		src := int(seed) % g.N
		p, _, _, err := PowerIteration(g, src, Config{Alpha: 0.3, MaxIter: 500, Tol: 1e-12})
		if err != nil {
			return false
		}
		for i, v := range p {
			if i != src && v > p[src] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPowerIteration(b *testing.B) {
	rng := tensor.NewRand(1)
	g := graph.BarabasiAlbert(10000, 5, rng)
	cfg := defaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := PowerIteration(g, i%g.N, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardPush(b *testing.B) {
	rng := tensor.NewRand(1)
	g := graph.BarabasiAlbert(10000, 5, rng)
	cfg := Config{Alpha: 0.15, Epsilon: 1e-4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ForwardPush(g, i%g.N, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
