package graph

import (
	"math"
	"math/rand/v2"
	"testing"

	"scalegnn/internal/tensor"
)

// randCSR builds a random undirected CSR over n nodes. Roughly isolateFrac
// of the nodes get no edges at all, so empty CSR rows (degree 0) are always
// exercised.
func randCSR(t *testing.T, rng *rand.Rand, n int, avgDeg float64, isolateFrac float64) *CSR {
	t.Helper()
	isolated := map[int]bool{}
	for i := 0; i < n; i++ {
		if rng.Float64() < isolateFrac {
			isolated[i] = true
		}
	}
	var edges [][2]int
	target := int(float64(n) * avgDeg / 2)
	// Attempt-capped so graphs too small (or too isolated) to host the
	// target edge count still terminate — an n=1 graph simply stays empty.
	for tries := 0; len(edges) < target && tries < 100*(target+1); tries++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v || isolated[u] || isolated[v] {
			continue
		}
		edges = append(edges, [2]int{u, v})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSpMMMatchesDense checks the row-chunked CSR×dense ApplyInto against
// the materialized Dense() operator times X, across every normalization,
// with and without self-loops, at both element tiers, on graphs that
// include empty rows. The float64 comparison is near-exact (the two paths
// only differ in add order within a row); float32 allows vector
// reassociation.
func TestSpMMMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	norms := []Normalization{NormNone, NormSymmetric, NormRandomWalk, NormColumn}
	for _, n := range []int{1, 17, 120} {
		g := randCSR(t, rng, n, 6, 0.2)
		const d = 9 // odd: exercises the axpy tails
		x := tensor.New(n, d)
		for i := range x.Data {
			x.Data[i] = rng.Float64() - 0.5
		}
		x32 := tensor.FromFloat64[float32](x)
		for _, norm := range norms {
			for _, loops := range []bool{false, true} {
				op := NewOperator(g, norm, loops)
				want := tensor.MatMul(op.Dense(), x)
				got := tensor.New(n, d)
				op.ApplyInto(x, got)
				for i := range want.Data {
					if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
						t.Fatalf("n=%d norm=%v loops=%v float64: spmm[%d]=%g dense=%g",
							n, norm, loops, i, got.Data[i], want.Data[i])
					}
				}

				op32 := NewOperatorOf[float32](g, norm, loops)
				got32 := tensor.NewOf[float32](n, d)
				op32.ApplyInto(x32, got32)
				for i := range want.Data {
					if math.Abs(float64(got32.Data[i])-want.Data[i]) > 1e-4 {
						t.Fatalf("n=%d norm=%v loops=%v float32: spmm[%d]=%g dense64=%g",
							n, norm, loops, i, got32.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestSpMMEmptyRowsZeroOutput pins the empty-row contract: a node with no
// arcs and no self-loop coefficient must come out exactly zero even when
// dst starts dirty (ApplyInto overwrites, never accumulates).
func TestSpMMEmptyRowsZeroOutput(t *testing.T) {
	g, err := FromEdges(4, [][2]int{{0, 1}}) // nodes 2 and 3 isolated
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3)
	for i := range x.Data {
		x.Data[i] = 1
	}
	op := NewOperator(g, NormSymmetric, false)
	dst := tensor.New(4, 3)
	for i := range dst.Data {
		dst.Data[i] = 99 // dirty destination
	}
	op.ApplyInto(x, dst)
	for _, u := range []int{2, 3} {
		for _, v := range dst.Row(u) {
			if v != 0 {
				t.Fatalf("isolated node %d row = %v, want zeros", u, dst.Row(u))
			}
		}
	}
}

// TestApplyRowsIntoBitsMatchApplyInto pins the float64 SpMM to the bits of
// the textbook row loop (arcs in CSR order, product rounded before the add,
// zero coefficients skipped) and ApplyRowsInto on a row subset to the same
// rows of ApplyInto — the property that keeps distributed shards bitwise
// equal to a single process. Widths cover the row kernel's 32-, 4- and
// 1-column blocks. On float32 it holds the row subset to ApplyInto's bits
// and a zero arc from a row of ±Inf and NaN to a finite output row (the
// term is skipped, not added as 0·x). Nothing here depends on whether the
// vector kernels are on; scripts/check.sh runs it both ways.
func TestApplyRowsIntoBitsMatchApplyInto(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	const n = 300
	g := randCSR(t, rng, n, 9, 0.1)
	for _, d := range []int{1, 5, 64, 67} {
		x := tensor.New(n, d)
		for i := range x.Data {
			switch rng.IntN(8) {
			case 0:
				x.Data[i] = 0
			case 1:
				x.Data[i] = math.Copysign(0, -1)
			default:
				x.Data[i] = rng.NormFloat64()
			}
		}
		for _, loops := range []bool{false, true} {
			op := NewOperator(g, NormSymmetric, loops)
			op.Coef[rng.IntN(len(op.Coef))] = 0 // a skipped arc

			full := tensor.New(n, d)
			op.ApplyInto(x, full)
			for u := 0; u < n; u++ {
				for j := 0; j < d; j++ {
					var s float64
					if loops && op.loopCo[u] != 0 {
						s = op.loopCo[u] * x.At(u, j)
					}
					for k := g.Offsets[u]; k < g.Offsets[u+1]; k++ {
						if c := op.Coef[k]; c != 0 {
							s += float64(c * x.At(int(g.Adj[k]), j)) // the conversion forbids fusing
						}
					}
					if math.Float64bits(full.At(u, j)) != math.Float64bits(s) {
						t.Fatalf("d=%d loops=%v: ApplyInto[%d,%d] = %v, row loop %v", d, loops, u, j, full.At(u, j), s)
					}
				}
			}

			var rows []int32
			for u := 0; u < n; u++ {
				if rng.IntN(3) == 0 {
					rows = append(rows, int32(u))
				}
			}
			const untouched = 99.0
			part := tensor.New(n, d)
			part.Fill(untouched)
			op.ApplyRowsInto(x, part, rows)
			want := tensor.New(n, d)
			want.Fill(untouched)
			for _, u := range rows {
				copy(want.Row(int(u)), full.Row(int(u)))
			}
			for i := range want.Data {
				if math.Float64bits(part.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("d=%d loops=%v: ApplyRowsInto differs from ApplyInto at row %d col %d: %v vs %v",
						d, loops, i/d, i%d, part.Data[i], want.Data[i])
				}
			}
		}
	}

	for _, d := range []int{1, 5, 64, 67} {
		x := tensor.NewOf[float32](n, d)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		u := rng.IntN(n)
		for g.Offsets[u] == g.Offsets[u+1] {
			u = rng.IntN(n)
		}
		v := g.Adj[g.Offsets[u]] // never u: randCSR draws no self-loops
		poison := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
		for j := range x.Row(int(v)) {
			x.Row(int(v))[j] = poison[j%len(poison)]
		}
		rows := []int32{int32(u)}
		for w := 0; w < n; w++ {
			if w != u && rng.IntN(3) == 0 {
				rows = append(rows, int32(w))
			}
		}
		for _, loops := range []bool{false, true} {
			op := NewOperatorOf[float32](g, NormSymmetric, loops)
			for k := g.Offsets[u]; k < g.Offsets[u+1]; k++ {
				if g.Adj[k] == v {
					op.Coef[k] = 0 // every arc u→v is skipped
				}
			}
			full := tensor.NewOf[float32](n, d)
			op.ApplyInto(x, full)
			for j, y := range full.Row(u) {
				if math.IsInf(float64(y), 0) || y != y {
					t.Fatalf("float32 d=%d loops=%v: row %d col %d = %v; its only non-finite source has coefficient 0", d, loops, u, j, y)
				}
			}
			const untouched = 99.0
			part := tensor.NewOf[float32](n, d)
			part.Fill(untouched)
			op.ApplyRowsInto(x, part, rows)
			want := tensor.NewOf[float32](n, d)
			want.Fill(untouched)
			for _, r := range rows {
				copy(want.Row(int(r)), full.Row(int(r)))
			}
			for i := range want.Data {
				if math.Float32bits(part.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("float32 d=%d loops=%v: ApplyRowsInto differs from ApplyInto at row %d col %d: %v vs %v",
						d, loops, i/d, i%d, part.Data[i], want.Data[i])
				}
			}
		}
	}
}
