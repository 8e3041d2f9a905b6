package sampling

import (
	"math"
	"testing"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

func testGraph(t *testing.T, n, deg int) *graph.CSR {
	t.Helper()
	rng := tensor.NewRand(uint64(n*31 + deg))
	return graph.BarabasiAlbert(n, deg, rng)
}

func batchOf(n, k int) []int32 {
	b := make([]int32, k)
	for i := range b {
		b[i] = int32(i * (n / k))
	}
	return b
}

func TestExactBlockMatchesOperator(t *testing.T) {
	g := testGraph(t, 100, 3)
	rng := tensor.NewRand(1)
	x := tensor.RandNormal(g.N, 4, 1, rng)
	op := graph.NewOperator(g, graph.NormRandomWalk, false)
	full := op.Apply(x)
	dsts := batchOf(g.N, 10)
	blk := exactBlock(g, dsts)
	est := blk.Aggregate(x.SelectRows(toInts(blk.Srcs)))
	for i, d := range dsts {
		for j := 0; j < 4; j++ {
			if math.Abs(est.At(i, j)-full.At(int(d), j)) > 1e-12 {
				t.Fatalf("exact block disagrees with operator at (%d,%d)", i, j)
			}
		}
	}
}

func toInts(ids []int32) []int {
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = int(v)
	}
	return out
}

func TestNeighborSamplerUnbiased(t *testing.T) {
	g := testGraph(t, 120, 4)
	rng := tensor.NewRand(2)
	x := tensor.RandNormal(g.N, 3, 1, rng)
	s, err := NewNeighborSampler(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := MeasureVariance(g, x, s, batchOf(g.N, 20), 3000, rng)
	if math.Abs(rep.MeanBias) > 0.01 {
		t.Errorf("node-level sampler bias %v", rep.MeanBias)
	}
	if rep.MeanSquaredError == 0 {
		t.Error("expected nonzero variance with fanout < degree")
	}
}

func TestNeighborSamplerFullFanoutExact(t *testing.T) {
	g := testGraph(t, 60, 3)
	rng := tensor.NewRand(3)
	x := tensor.RandNormal(g.N, 3, 1, rng)
	s, err := NewNeighborSampler(g, g.MaxDegree())
	if err != nil {
		t.Fatal(err)
	}
	rep := MeasureVariance(g, x, s, batchOf(g.N, 10), 5, rng)
	if rep.MeanSquaredError > 1e-20 {
		t.Errorf("fanout >= max degree should be exact, MSE = %v", rep.MeanSquaredError)
	}
}

func TestNeighborSamplerRespectsFanout(t *testing.T) {
	g := testGraph(t, 200, 6)
	rng := tensor.NewRand(4)
	s, _ := NewNeighborSampler(g, 2)
	blk := s.SampleBlock(batchOf(g.N, 30), rng)
	for i, ns := range blk.Neigh {
		if len(ns) > 2 {
			t.Fatalf("dst %d got %d > 2 neighbors", i, len(ns))
		}
	}
	// Sampled blocks must keep dsts as the leading srcs (self features).
	for i, d := range blk.Dsts {
		if blk.Srcs[i] != d {
			t.Fatal("Srcs must start with Dsts")
		}
	}
}

func TestSampleLayersDepth(t *testing.T) {
	g := testGraph(t, 150, 4)
	rng := tensor.NewRand(5)
	s, _ := NewNeighborSampler(g, 3)
	blocks := s.SampleLayers(batchOf(g.N, 5), 3, rng)
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	// Each deeper block's dsts are the previous block's srcs.
	for l := 1; l < 3; l++ {
		prev := blocks[l-1].Srcs
		cur := blocks[l].Dsts
		if len(prev) != len(cur) {
			t.Fatal("layer wiring broken")
		}
		for i := range prev {
			if prev[i] != cur[i] {
				t.Fatal("layer wiring broken")
			}
		}
	}
}

func TestLaborUnbiasedAndFewerUniques(t *testing.T) {
	g := testGraph(t, 400, 8)
	rng := tensor.NewRand(6)
	x := tensor.RandNormal(g.N, 3, 1, rng)
	dsts := batchOf(g.N, 80)

	labor, err := NewLaborSampler(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	poisson, err := NewPoissonSampler(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	repL := MeasureVariance(g, x, labor, dsts, 1500, rng)
	repP := MeasureVariance(g, x, poisson, dsts, 1500, rng)

	if math.Abs(repL.MeanBias) > 0.02 {
		t.Errorf("LABOR bias %v", repL.MeanBias)
	}
	if math.Abs(repP.MeanBias) > 0.02 {
		t.Errorf("Poisson bias %v", repP.MeanBias)
	}
	// The LABOR claim: same marginal inclusion → comparable variance, but
	// shared variates → strictly fewer unique sampled sources.
	if repL.AvgUniqueSrcs >= repP.AvgUniqueSrcs {
		t.Errorf("LABOR uniques %.1f not below Poisson %.1f", repL.AvgUniqueSrcs, repP.AvgUniqueSrcs)
	}
	if repL.MeanSquaredError > repP.MeanSquaredError*2.5 {
		t.Errorf("LABOR variance %v far above Poisson %v", repL.MeanSquaredError, repP.MeanSquaredError)
	}
}

func TestFastGCNUnbiased(t *testing.T) {
	g := testGraph(t, 150, 4)
	rng := tensor.NewRand(7)
	x := tensor.RandNormal(g.N, 3, 1, rng)
	s, err := NewFastGCNSampler(g, 60)
	if err != nil {
		t.Fatal(err)
	}
	rep := MeasureVariance(g, x, s, batchOf(g.N, 25), 4000, rng)
	if math.Abs(rep.MeanBias) > 0.02 {
		t.Errorf("FastGCN bias %v", rep.MeanBias)
	}
}

func TestFastGCNBudgetReducesVariance(t *testing.T) {
	g := testGraph(t, 200, 5)
	rng := tensor.NewRand(8)
	x := tensor.RandNormal(g.N, 3, 1, rng)
	dsts := batchOf(g.N, 30)
	small, _ := NewFastGCNSampler(g, 20)
	large, _ := NewFastGCNSampler(g, 400)
	repS := MeasureVariance(g, x, small, dsts, 800, rng)
	repB := MeasureVariance(g, x, large, dsts, 800, rng)
	if repB.MeanSquaredError >= repS.MeanSquaredError {
		t.Errorf("larger budget should shrink variance: %v vs %v",
			repB.MeanSquaredError, repS.MeanSquaredError)
	}
}

func TestSamplerValidation(t *testing.T) {
	g := testGraph(t, 20, 2)
	if _, err := NewNeighborSampler(g, 0); err == nil {
		t.Error("fanout 0 should error")
	}
	if _, err := NewLaborSampler(g, 0); err == nil {
		t.Error("labor fanout 0 should error")
	}
	if _, err := NewPoissonSampler(g, -1); err == nil {
		t.Error("poisson fanout < 1 should error")
	}
	if _, err := NewFastGCNSampler(g, 0); err == nil {
		t.Error("budget 0 should error")
	}
	empty, _ := graph.FromEdges(3, nil)
	if _, err := NewFastGCNSampler(empty, 5); err == nil {
		t.Error("empty graph should error")
	}
}

func TestAliasTableDistribution(t *testing.T) {
	probs := []float64{0.5, 0.3, 0.2}
	at := newAliasTable(probs)
	rng := tensor.NewRand(9)
	counts := make([]float64, 3)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[at.draw(rng)]++
	}
	for i, p := range probs {
		got := counts[i] / draws
		if math.Abs(got-p) > 0.01 {
			t.Errorf("alias p[%d] = %v, want %v", i, got, p)
		}
	}
}

func TestReceptiveFieldGrowth(t *testing.T) {
	g := testGraph(t, 3000, 6)
	batch := batchOf(g.N, 4)
	prev := 0
	for l := 1; l <= 4; l++ {
		rf := ReceptiveField(g, batch, l)
		if rf < prev || (rf == prev && prev < g.N) {
			t.Fatalf("receptive field not growing at layer %d: %d <= %d", l, rf, prev)
		}
		prev = rf
	}
	// Neighborhood explosion: 4 hops on a BA graph should reach most of it.
	if prev < g.N/3 {
		t.Errorf("4-hop field only %d of %d; BA graph should explode", prev, g.N)
	}
	// Sampled field must be much smaller.
	rng := tensor.NewRand(10)
	s, _ := NewNeighborSampler(g, 3)
	sampled := SampledFieldSize(s, batch, 4, rng)
	if sampled >= prev/2 {
		t.Errorf("sampling did not cap the field: %d vs full %d", sampled, prev)
	}
}

func BenchmarkNeighborSampler(b *testing.B) {
	rng := tensor.NewRand(1)
	g := graph.BarabasiAlbert(50000, 8, rng)
	s, _ := NewNeighborSampler(g, 5)
	batch := batchOf(g.N, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleLayers(batch, 2, rng)
	}
}

func TestLadiesUnbiasedAndRestricted(t *testing.T) {
	g := testGraph(t, 250, 5)
	rng := tensor.NewRand(21)
	x := tensor.RandNormal(g.N, 3, 1, rng)
	dsts := batchOf(g.N, 25)
	s, err := NewLadiesSampler(g, 80)
	if err != nil {
		t.Fatal(err)
	}
	rep := MeasureVariance(g, x, s, dsts, 3000, rng)
	if math.Abs(rep.MeanBias) > 0.02 {
		t.Errorf("LADIES bias %v", rep.MeanBias)
	}
	// Restriction: every sampled source beyond the dsts themselves must be
	// a neighbor of some dst.
	blk := s.SampleBlock(dsts, rng)
	isDst := make(map[int32]bool, len(dsts))
	for _, d := range dsts {
		isDst[d] = true
	}
	inNeighborhood := make(map[int32]bool)
	for _, d := range dsts {
		for _, v := range g.Neighbors(int(d)) {
			inNeighborhood[v] = true
		}
	}
	for _, src := range blk.Srcs {
		if !isDst[src] && !inNeighborhood[src] {
			t.Fatalf("source %d outside the neighborhood union", src)
		}
	}
}

func TestLadiesBeatsFastGCNEfficiency(t *testing.T) {
	// At equal budget, LADIES wastes no draws on unreachable nodes, so its
	// variance should not exceed FastGCN's by much and typically improves.
	g := testGraph(t, 400, 5)
	rng := tensor.NewRand(22)
	x := tensor.RandNormal(g.N, 3, 1, rng)
	dsts := batchOf(g.N, 20)
	lad, err := NewLadiesSampler(g, 60)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewFastGCNSampler(g, 60)
	if err != nil {
		t.Fatal(err)
	}
	repL := MeasureVariance(g, x, lad, dsts, 1200, rng)
	repF := MeasureVariance(g, x, fast, dsts, 1200, rng)
	if repL.MeanSquaredError > repF.MeanSquaredError {
		t.Errorf("LADIES MSE %v above FastGCN %v at equal budget",
			repL.MeanSquaredError, repF.MeanSquaredError)
	}
}

func TestLadiesValidation(t *testing.T) {
	g := testGraph(t, 30, 2)
	if _, err := NewLadiesSampler(g, 0); err == nil {
		t.Error("budget 0 should error")
	}
	// Isolated dsts: block must be empty but well-formed.
	empty, _ := graph.FromEdges(5, nil)
	s, err := NewLadiesSampler(empty, 10)
	if err != nil {
		t.Fatal(err)
	}
	blk := s.SampleBlock([]int32{0, 1}, tensor.NewRand(1))
	if blk.NumUniqueSrcs() != 2 { // just the dsts themselves
		t.Errorf("unique srcs = %d", blk.NumUniqueSrcs())
	}
}

// TestAggregateBackwardIsAdjoint checks <Aggregate(x), g> == <x, AggregateBackward(g)>
// — the defining property the SAGE trainer's gradients rely on.
func TestAggregateBackwardIsAdjoint(t *testing.T) {
	g := testGraph(t, 80, 4)
	rng := tensor.NewRand(33)
	s, err := NewNeighborSampler(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	blk := s.SampleBlock(batchOf(g.N, 15), rng)
	x := tensor.RandNormal(blk.NumUniqueSrcs(), 4, 1, rng)
	gy := tensor.RandNormal(len(blk.Dsts), 4, 1, rng)
	y := blk.Aggregate(x)
	gx := blk.AggregateBackward(gy)
	var lhs, rhs float64
	for i := range y.Data {
		lhs += y.Data[i] * gy.Data[i]
	}
	for i := range x.Data {
		rhs += x.Data[i] * gx.Data[i]
	}
	if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
		t.Errorf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}
