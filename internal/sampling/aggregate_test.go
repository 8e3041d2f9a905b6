package sampling

import (
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"testing"

	"scalegnn/internal/graph"
	"scalegnn/internal/par"
	"scalegnn/internal/tensor"
)

// aggregateOracle is the loop AggregateInto replaced: a zeroed output, then
// one Axpy per edge, destinations in order and each one's edges in
// order.
func aggregateOracle(b *Block, src *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(len(b.Dsts), src.Cols)
	for i := range b.Dsts {
		row := out.Row(i)
		for j, s := range b.Neigh[i] {
			tensor.Axpy(b.Weight(i)[j], src.Row(int(s)), row)
		}
	}
	return out
}

// aggregateBackwardOracle is the scatter AggregateBackwardInto replaced.
func aggregateBackwardOracle(b *Block, g *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(len(b.Srcs), g.Cols)
	for i := range b.Dsts {
		grow := g.Row(i)
		for j, s := range b.Neigh[i] {
			tensor.Axpy(b.Weight(i)[j], grow, out.Row(int(s)))
		}
	}
	return out
}

// sameBits is bit equality, except that any NaN equals any NaN: which
// payload survives when both operands of an add are NaN depends on operand
// order, which neither path promises.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// specialFeatures is a rows×cols matrix of N(0,1) values with one in eleven
// replaced by ±0, ±Inf, NaN, a denormal or a huge value.
func specialFeatures(rows, cols int, rng *rand.Rand) *tensor.Matrix {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -2.5e-310, 1e308}
	x := tensor.RandNormal(rows, cols, 1, rng)
	for i := range x.Data {
		if rng.IntN(11) == 0 {
			x.Data[i] = specials[rng.IntN(len(specials))]
		}
	}
	return x
}

// aggregateFixtures returns every block constructor's block on three
// graphs: a 2 000-node SBM with a batch large enough to split among
// workers, a sparse G(n,m) with isolated destinations, and a star whose
// hub is the one source of every leaf destination.
func aggregateFixtures(t *testing.T) []namedBlock {
	t.Helper()
	sbm, _, err := graph.SBM(graph.SBMConfig{Nodes: 2000, Blocks: 4, AvgDegree: 8, Homophily: 0.8}, tensor.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	star := graph.NewBuilder(700)
	for v := 1; v < 700; v++ {
		star.AddEdge(0, v)
	}
	leaves := make([]int32, 690)
	for i := range leaves {
		leaves[i] = int32(i + 1)
	}
	fixtures := []struct {
		name string
		g    *graph.CSR
		dsts []int32
	}{
		{"sbm", sbm, batchOf(2000, 700)},
		{"er", graph.ErdosRenyi(80, 60, tensor.NewRand(23)), batchOf(80, 40)},
		{"star", star.MustBuild(), leaves},
	}
	var blocks []namedBlock
	for _, fx := range fixtures {
		for _, s := range allSamplers(t, fx.g) {
			blocks = append(blocks, namedBlock{fx.name + "/" + s.name, s.s.SampleBlock(fx.dsts, tensor.NewRand(101))})
		}
		blocks = append(blocks, namedBlock{fx.name + "/exact", exactBlock(fx.g, fx.dsts)})
	}
	return blocks
}

type namedBlock struct {
	name string
	b    *Block
}

type namedSampler struct {
	name string
	s    BlockSampler
}

// allSamplers builds the five samplers of the package on g.
func allSamplers(t *testing.T, g *graph.CSR) []namedSampler {
	t.Helper()
	var out []namedSampler
	add := func(name string, s BlockSampler, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedSampler{name, s})
	}
	ns, err := NewNeighborSampler(g, 3)
	add("neighbor", ns, err)
	ls, err := NewLaborSampler(g, 3)
	add("labor", ls, err)
	ps, err := NewPoissonSampler(g, 3)
	add("poisson", ps, err)
	fs, err := NewFastGCNSampler(g, 256)
	add("fastgcn", fs, err)
	ld, err := NewLadiesSampler(g, 256)
	add("ladies", ld, err)
	return out
}

// TestAggregateMatchesOracle holds AggregateInto and AggregateBackwardInto
// bitwise to the per-edge loops they replaced, for every block constructor,
// at one, two and three workers, on features and gradients full of
// specials. Isolated destinations aggregate to +0. Every weight is > 0:
// the row kernel skips a zero coefficient where the loops added it, so
// this is what makes the two equal.
func TestAggregateMatchesOracle(t *testing.T) {
	if os.Getenv("SCALEGNN_NOSIMD") != "" && tensor.FastF32() {
		t.Fatal("SCALEGNN_NOSIMD is set but the vector kernels are on")
	}
	rng := tensor.NewRand(7)
	var finite, total int
	for _, fb := range aggregateFixtures(t) {
		key, b := fb.name, fb.b
		for _, w := range b.W {
			if !(w > 0) {
				t.Fatalf("%s: weight %v", key, w)
			}
		}
		for _, cols := range []int{1, 5, 33, 64} {
			x := specialFeatures(len(b.Srcs), cols, rng)
			g := specialFeatures(len(b.Dsts), cols, rng)
			wantY, wantG := aggregateOracle(b, x), aggregateBackwardOracle(b, g)
			for _, workers := range []int{1, 2, 3} {
				prev := par.SetMaxWorkers(workers)
				y := tensor.New(len(b.Dsts), cols)
				gx := tensor.New(len(b.Srcs), cols)
				y.Fill(math.NaN()) // the kernels must overwrite, not add
				gx.Fill(math.NaN())
				b.AggregateInto(x, y)
				b.AggregateBackwardInto(g, gx)
				par.SetMaxWorkers(prev)
				requireSame(t, key, "forward", cols, workers, y, wantY)
				requireSame(t, key, "backward", cols, workers, gx, wantG)
				for _, v := range append(wantY.Data, wantG.Data...) {
					if !math.IsNaN(v) && !math.IsInf(v, 0) {
						finite++
					}
					total++
				}
				for i := range b.Dsts {
					if b.Offsets[i] != b.Offsets[i+1] {
						continue
					}
					for _, v := range y.Row(i) {
						if math.Float64bits(v) != 0 {
							t.Fatalf("%s: isolated dst %d aggregates to %v, want +0", key, i, v)
						}
					}
				}
			}
		}
	}
	// Specials must not swamp the comparison: most outputs stay finite.
	if finite < total/2 {
		t.Fatalf("only %d of %d oracle values are finite", finite, total)
	}
}

func requireSame(t *testing.T, key, pass string, cols, workers int, got, want *tensor.Matrix) {
	t.Helper()
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s %s cols=%d workers=%d: element %d is %v (%#x), oracle %v (%#x)", key, pass, cols, workers, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestAggregateScalarPath runs TestAggregateMatchesOracle again in a child
// process with the vector kernels off, since the gate is read once at
// start-up.
func TestAggregateScalarPath(t *testing.T) {
	if !tensor.FastF32() {
		t.Skip("the vector kernels are off, so TestAggregateMatchesOracle ran the scalar path")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestAggregateMatchesOracle$", "-test.count=1")
	cmd.Env = append(os.Environ(), "SCALEGNN_NOSIMD=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("with SCALEGNN_NOSIMD=1: %v\n%s", err, out)
	}
}

// TestSamplerReuseMatchesFresh draws two-layer samples from one sampler
// reused across many batches and from a fresh sampler per batch, on the
// same RNG stream: the blocks must be the same, so the local-id table is
// left clean after every block.
func TestSamplerReuseMatchesFresh(t *testing.T) {
	g, _, err := graph.SBM(graph.SBMConfig{Nodes: 600, Blocks: 3, AvgDegree: 6, Homophily: 0.7}, tensor.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	twoLayers := func(s BlockSampler, batch []int32, rng *rand.Rand) []*Block {
		if ns, ok := s.(*NeighborSampler); ok {
			return ns.SampleLayers(batch, 2, rng)
		}
		b0 := s.SampleBlock(batch, rng)
		return []*Block{b0, s.SampleBlock(b0.Srcs, rng)}
	}
	reused := allSamplers(t, g)
	for k := range reused {
		rngReused, rngFresh := tensor.NewRand(11), tensor.NewRand(11)
		for call := 0; call < 12; call++ {
			batch := make([]int32, 20+call*7)
			for i := range batch {
				batch[i] = int32((call*131 + i*17) % g.N)
			}
			got := twoLayers(reused[k].s, batch, rngReused)
			want := twoLayers(allSamplers(t, g)[k].s, batch, rngFresh)
			for l := range want {
				if blockDigest(got[l]) != blockDigest(want[l]) {
					t.Fatalf("%s: call %d layer %d differs from a fresh sampler's", reused[k].name, call, l)
				}
			}
		}
	}
}
