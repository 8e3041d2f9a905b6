package coarsen

import (
	"math"
	"testing"

	"scalegnn/internal/graph"
	"scalegnn/internal/spectral"
	"scalegnn/internal/tensor"
)

func testGraph(t *testing.T, seed uint64) *graph.CSR {
	t.Helper()
	return graph.BarabasiAlbert(200, 4, tensor.NewRand(seed))
}

func TestCoarsenReachesTarget(t *testing.T) {
	g := testGraph(t, 1)
	rng := tensor.NewRand(2)
	for _, s := range []Strategy{RandomMatching, HeavyEdge, NormalizedHeavyEdge} {
		r, err := Coarsen(g, 50, s, rng)
		if err != nil {
			t.Fatal(err)
		}
		if r.Coarse.N > 60 {
			t.Errorf("%v: coarse n = %d, want <= ~50", s, r.Coarse.N)
		}
		if r.Levels == 0 {
			t.Errorf("%v: no levels performed", s)
		}
		if ratio := float64(g.N) / float64(r.Coarse.N); ratio < 3 {
			t.Errorf("%v: ratio = %v", s, ratio)
		}
	}
}

func TestAssignConsistency(t *testing.T) {
	g := testGraph(t, 3)
	rng := tensor.NewRand(4)
	r, err := Coarsen(g, 40, HeavyEdge, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Assign) != g.N {
		t.Fatalf("assign length %d", len(r.Assign))
	}
	total := 0
	for c, s := range r.ClusterSize {
		if s == 0 {
			t.Errorf("empty cluster %d", c)
		}
		total += s
	}
	if total != g.N {
		t.Errorf("cluster sizes sum to %d, want %d", total, g.N)
	}
	for _, c := range r.Assign {
		if c < 0 || c >= r.Coarse.N {
			t.Fatalf("assign out of range: %d", c)
		}
	}
}

// TestLiftedQuadraticInvariant checks the exact contraction invariant: for
// any coarse vector x_c and its lift x_f, x_cᵀ L_c x_c equals x_fᵀ L_f x_f,
// because coarse edge weights accumulate inter-cluster fine weights and
// intra-cluster edges vanish on cluster-constant vectors.
func TestLiftedQuadraticInvariant(t *testing.T) {
	g := testGraph(t, 5)
	rng := tensor.NewRand(6)
	quadratic := func(g *graph.CSR, x []float64) float64 {
		var s float64
		for _, e := range g.UndirectedEdges() {
			d := x[e.U] - x[e.V]
			s += e.W * d * d
		}
		return s
	}
	for _, s := range []Strategy{RandomMatching, HeavyEdge, NormalizedHeavyEdge} {
		r, err := Coarsen(g, 30, s, rng)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			xc := make([]float64, r.Coarse.N)
			for i := range xc {
				xc[i] = rng.NormFloat64()
			}
			xf := make([]float64, g.N)
			for u, c := range r.Assign {
				xf[u] = xc[c]
			}
			qc, qf := quadratic(r.Coarse, xc), quadratic(g, xf)
			if e := math.Abs(qc-qf) / qf; e > 1e-10 {
				t.Errorf("%v: lifted quadratic error %v (contraction weights wrong)", s, e)
			}
		}
	}
}

func TestConnectivityPreserved(t *testing.T) {
	// Contracting a connected graph must stay connected.
	g := testGraph(t, 7)
	rng := tensor.NewRand(8)
	r, err := Coarsen(g, 20, HeavyEdge, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, k := r.Coarse.ConnectedComponents(); k != 1 {
		t.Errorf("coarse graph has %d components", k)
	}
}

func TestCoarsenValidation(t *testing.T) {
	g := testGraph(t, 9)
	rng := tensor.NewRand(10)
	if _, err := Coarsen(g, 0, HeavyEdge, rng); err == nil {
		t.Error("target 0 should error")
	}
	b := graph.NewBuilder(2)
	b.Directed = true
	b.AddEdge(0, 1)
	if _, err := Coarsen(b.MustBuild(), 1, HeavyEdge, rng); err == nil {
		t.Error("directed graph should error")
	}
}

func TestCoarsenStopsOnDisconnected(t *testing.T) {
	// A graph with no edges cannot be contracted below n; Coarsen must
	// terminate rather than loop.
	g, err := graph.FromEdges(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Coarsen(g, 2, HeavyEdge, tensor.NewRand(11))
	if err != nil {
		t.Fatal(err)
	}
	if r.Coarse.N != 10 {
		t.Errorf("edgeless graph contracted to %d", r.Coarse.N)
	}
}

func TestProjectFeaturesMeanPooling(t *testing.T) {
	x := tensor.FromSlice(3, 2, []float64{1, 2, 3, 4, 10, 20})
	assign := []int{0, 0, 1}
	out := ProjectFeatures(x, assign, 2)
	if out.At(0, 0) != 2 || out.At(0, 1) != 3 {
		t.Errorf("cluster 0 = %v", out.Row(0))
	}
	if out.At(1, 0) != 10 || out.At(1, 1) != 20 {
		t.Errorf("cluster 1 = %v", out.Row(1))
	}
}

func TestProjectLabelsMajority(t *testing.T) {
	labels := []int{0, 0, 1, 2, -1}
	assign := []int{0, 0, 0, 1, 2}
	out := ProjectLabels(labels, assign, 3, 3)
	if out[0] != 0 {
		t.Errorf("cluster 0 majority = %d, want 0", out[0])
	}
	if out[1] != 2 {
		t.Errorf("cluster 1 = %d, want 2", out[1])
	}
	if out[2] != -1 {
		t.Errorf("unlabeled cluster = %d, want -1", out[2])
	}
}

func TestLiftRoundTrip(t *testing.T) {
	lbl := LiftLabels([]int{7, 9}, []int{1, 0, 1})
	if lbl[0] != 9 || lbl[1] != 7 || lbl[2] != 9 {
		t.Errorf("lift labels = %v", lbl)
	}
}

// laplacianEigenvalues densely diagonalizes the combinatorial Laplacian and
// returns its nonzero eigenvalues, ascending.
func laplacianEigenvalues(g *graph.CSR) []float64 {
	l := tensor.New(g.N, g.N)
	for _, e := range g.UndirectedEdges() {
		l.Set(e.U, e.U, l.At(e.U, e.U)+e.W)
		l.Set(e.V, e.V, l.At(e.V, e.V)+e.W)
		l.Set(e.U, e.V, l.At(e.U, e.V)-e.W)
		l.Set(e.V, e.U, l.At(e.V, e.U)-e.W)
	}
	vals, _ := spectral.JacobiEigen(l, 100)
	for i, v := range vals {
		if v > 1e-9 {
			return vals[i:]
		}
	}
	return nil
}

// TestEigenvalueErrorSpectralAwareBeatsRandomOnAverage: spectral-aware
// matching preserves the k smallest nonzero Laplacian eigenvalues (the
// GDEM/GC-SNTK objective) at least as well as random matching on a modular
// graph. Averaging over seeds keeps the test stable.
func TestEigenvalueErrorSpectralAwareBeatsRandomOnAverage(t *testing.T) {
	eigenvalueError := func(g *graph.CSR, r *Result, k int) float64 {
		fine, coarse := laplacianEigenvalues(g), laplacianEigenvalues(r.Coarse)
		var sum float64
		count := 0
		for i := 0; i < k && i < len(fine) && i < len(coarse); i++ {
			sum += math.Abs(fine[i]-coarse[i]) / fine[i]
			count++
		}
		return sum / float64(count)
	}
	var randErr, spectErr float64
	const reps = 5
	for seed := uint64(0); seed < reps; seed++ {
		rng := tensor.NewRand(100 + seed)
		g, _, err := graph.SBM(graph.SBMConfig{Nodes: 80, Blocks: 4, AvgDegree: 8, Homophily: 0.9}, rng)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := Coarsen(g, 20, RandomMatching, tensor.NewRand(seed*7+1))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := Coarsen(g, 20, NormalizedHeavyEdge, tensor.NewRand(seed*7+1))
		if err != nil {
			t.Fatal(err)
		}
		randErr += eigenvalueError(g, rr, 5)
		spectErr += eigenvalueError(g, rs, 5)
	}
	if math.IsNaN(randErr) || math.IsNaN(spectErr) {
		t.Fatal("NaN eigenvalue error")
	}
	if spectErr > randErr*1.5 {
		t.Errorf("spectral-aware error %v far above random %v", spectErr/reps, randErr/reps)
	}
}

func BenchmarkCoarsen(b *testing.B) {
	g := graph.BarabasiAlbert(20000, 5, tensor.NewRand(1))
	rng := tensor.NewRand(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Coarsen(g, g.N/8, HeavyEdge, rng); err != nil {
			b.Fatal(err)
		}
	}
}
