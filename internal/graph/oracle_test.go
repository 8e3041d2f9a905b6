package graph

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"scalegnn/internal/tensor"
)

// This file keeps the straightforward implementations that Builder.Build and
// ReadEdgeList replaced: a comparison sort over (U, V, insertion) and a
// line reader that allocates a string per line and per field. They are the
// oracles the fast paths are held to, bit for bit and error for error.

// buildOracle is Builder.Build by comparison sort.
func buildOracle(b *Builder) (*CSR, error) {
	for _, e := range b.edges {
		if e.U < 0 || e.U >= b.N || e.V < 0 || e.V >= b.N {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, b.N)
		}
	}
	type keyed struct {
		Edge
		at int
	}
	es := make([]keyed, 0, len(b.edges))
	for i, e := range b.edges {
		if e.U == e.V && !b.KeepSelfLoops {
			continue
		}
		if !b.Directed && e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		es = append(es, keyed{e, i})
	}
	slices.SortFunc(es, func(x, y keyed) int {
		if c := cmp.Compare(x.U, y.U); c != 0 {
			return c
		}
		if c := cmp.Compare(x.V, y.V); c != 0 {
			return c
		}
		return cmp.Compare(x.at, y.at)
	})
	merged := es[:0]
	for _, e := range es {
		if n := len(merged); n > 0 && merged[n-1].U == e.U && merged[n-1].V == e.V {
			merged[n-1].W += e.W
			continue
		}
		merged = append(merged, e)
	}

	g := &CSR{N: b.N, Offsets: make([]int64, b.N+1), undirected: !b.Directed}
	mirrored := func(e keyed) bool { return !b.Directed && e.U != e.V }
	weighted := false
	for _, e := range merged {
		g.Offsets[e.U+1]++
		if mirrored(e) {
			g.Offsets[e.V+1]++
		}
		weighted = weighted || e.W != 1
	}
	for u := 0; u < b.N; u++ {
		g.Offsets[u+1] += g.Offsets[u]
	}
	g.Adj = make([]int32, g.Offsets[b.N])
	if weighted {
		g.Weights = make([]float64, len(g.Adj))
	}
	next := slices.Clone(g.Offsets[:b.N])
	put := func(u, v int, w float64) {
		g.Adj[next[u]] = int32(v)
		if weighted {
			g.Weights[next[u]] = w
		}
		next[u]++
	}
	for _, e := range merged {
		put(e.U, e.V, e.W)
		if mirrored(e) {
			put(e.V, e.U, e.W)
		}
	}
	return g, nil
}

// readEdgeListOracle is ReadEdgeList by ReadString, strings.Fields and
// strconv, building through buildOracle.
func readEdgeListOracle(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	n := -1
	directed := false
	var edges []Edge
	maxID := -1
	lineNo := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("graph: read: %w", err)
		}
		atEOF := err == io.EOF
		if line == "" && atEOF {
			break
		}
		lineNo++
		if atEOF && strings.TrimSpace(line) != "" {
			return nil, fmt.Errorf("graph: line %d: truncated final line (missing newline): %q", lineNo, line)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			if atEOF {
				break
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "# nodes ") {
				var d bool
				var nn int
				k, _ := fmt.Sscanf(line, "# nodes %d directed %t", &nn, &d)
				switch {
				case k >= 1 && nn < 0:
					return nil, fmt.Errorf("graph: line %d: header declares negative node count %d", lineNo, nn)
				case k >= 1 && nn > math.MaxInt32:
					return nil, fmt.Errorf("graph: line %d: header declares %d nodes, more than int32 node ids can address", lineNo, nn)
				case k == 2:
					n, directed = nn, d
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", lineNo, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source: %w", lineNo, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target: %w", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id in edge (%d,%d)", lineNo, u, v)
		}
		if u > math.MaxInt32 || v > math.MaxInt32 {
			return nil, fmt.Errorf("graph: line %d: node id past int32 in edge (%d,%d)", lineNo, u, v)
		}
		if n >= 0 && (u >= n || v >= n) {
			return nil, fmt.Errorf("graph: line %d: edge (%d,%d) outside declared range [0,%d)", lineNo, u, v, n)
		}
		w := 1.0
		if len(fields) == 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
			}
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: line %d: non-finite weight %q", lineNo, fields[2])
			}
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, Edge{U: u, V: v, W: w})
	}
	if n < 0 {
		n = maxID + 1
	}
	b := NewBuilder(n)
	b.Directed = directed
	for _, e := range edges {
		b.AddWeightedEdge(e.U, e.V, e.W)
	}
	g, err := buildOracle(b)
	if err != nil {
		return nil, fmt.Errorf("graph: build from edge list: %w", err)
	}
	return g, nil
}

// sameCSR reports whether two graphs are bitwise equal: node count,
// directedness, offsets, targets, and every weight's bits.
func sameCSR(a, b *CSR) bool {
	return a.N == b.N && a.undirected == b.undirected &&
		slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.Adj, b.Adj) &&
		(a.Weights == nil) == (b.Weights == nil) &&
		slices.EqualFunc(a.Weights, b.Weights, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
}

// TestBuildMatchesOracle: over random multisets — parallel copies in both
// orientations, self-loops, weights whose sums depend on their order —
// Build gives the comparison sort's CSR bit for bit, or its error.
func TestBuildMatchesOracle(t *testing.T) {
	rng := tensor.NewRand(33)
	weights := []float64{1, 1, 1, 2.5, -1, 0.1, 3, 1e16, -1e16, math.Copysign(0, -1)}
	for trial := 0; trial < 400; trial++ {
		b := NewBuilder(1 + rng.IntN(12))
		b.Directed = trial%2 == 1
		b.KeepSelfLoops = trial%4 >= 2
		pool := make([][2]int, 1+rng.IntN(8))
		for i := range pool {
			pool[i] = [2]int{rng.IntN(b.N), rng.IntN(b.N)}
		}
		for range rng.IntN(60) {
			e := pool[rng.IntN(len(pool))]
			if rng.IntN(2) == 0 {
				e[0], e[1] = e[1], e[0]
			}
			w := 1.0
			if trial%3 != 0 {
				w = weights[rng.IntN(len(weights))]
			}
			b.AddWeightedEdge(e[0], e[1], w)
		}
		if trial%50 == 7 {
			b.AddEdge(b.N, 0) // out of range: both must fail alike
		}
		got, err := b.Build()
		want, werr := buildOracle(b)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("trial %d: error %v, oracle %v", trial, err, werr)
		}
		if err == nil && !sameCSR(got, want) {
			t.Fatalf("trial %d (directed=%t loops=%t) edges %v:\n got %+v\nwant %+v",
				trial, b.Directed, b.KeepSelfLoops, b.edges, got, want)
		}
	}
}
