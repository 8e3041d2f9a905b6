package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"

	"scalegnn/internal/tensor"
)

func TestEdgeListRoundTrip(t *testing.T) {
	rng := tensor.NewRand(8)
	g := ErdosRenyi(40, 80, rng)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: n %d->%d, m %d->%d", g.N, g2.N, g.NumEdges(), g2.NumEdges())
	}
	for u := 0; u < g.N; u++ {
		ns, ns2 := g.Neighbors(u), g2.Neighbors(u)
		if len(ns) != len(ns2) {
			t.Fatalf("node %d degree changed", u)
		}
		for i := range ns {
			if ns[i] != ns2[i] {
				t.Fatalf("node %d neighbor list changed", u)
			}
		}
	}
}

func TestEdgeListWeightedRoundTrip(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2.5)
	b.AddWeightedEdge(1, 2, 0.25)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.WeightedDegree(1) != 2.75 {
		t.Errorf("weighted degree(1) = %v, want 2.75", g2.WeightedDegree(1))
	}
}

func TestEdgeListDirectedRoundTrip(t *testing.T) {
	b := NewBuilder(3)
	b.Directed = true
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Undirected() {
		t.Fatal("directedness lost in round trip")
	}
	if !g2.HasEdge(0, 1) || g2.HasEdge(1, 0) {
		t.Error("directed edges wrong after round trip")
	}
}

func TestReadEdgeListBareFormat(t *testing.T) {
	in := "0 1\n1 2\n# a comment\n\n2 3\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.NumEdges() != 6 {
		t.Errorf("bare parse: n=%d arcs=%d", g.N, g.NumEdges())
	}
}

// TestReadEdgeListErrors is the malformed-input table: every rejection
// must carry the offending line number so a multi-gigabyte edge list can
// be triaged without bisecting it.
func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"too few fields", "0\n", "line 1"},
		{"too many fields", "0 1 2 3\n", "line 1"},
		{"bad source", "x 1\n", "bad source"},
		{"bad target", "0 y\n", "bad target"},
		{"bad weight", "0 1 zz\n", "bad weight"},
		{"negative source", "-1 2\n", "negative node id"},
		{"negative target", "0 1\n2 -7\n", "line 2"},
		{"overflowing id", "0 99999999999999999999999999\n", "bad target"},
		{"id outside declared range", "# nodes 3 directed false\n0 1\n1 5\n", "outside declared range [0,3)"},
		{"negative header count", "# nodes -4 directed false\n0 1\n", "negative node count"},
		{"id past int32", "2147483648 0\n", "line 1: node id past int32"},
		{"header count past int32", "# nodes 99999999999\n", "line 1: header declares 99999999999 nodes"},
		{"NaN weight", "0 1 NaN\n", "line 1: non-finite weight"},
		{"infinite weight", "0 1\n0 2 -Inf\n", "line 2: non-finite weight"},
		{"truncated final line", "0 1\n1 2", "truncated final line"},
		{"truncated after weight", "0 1 0.5\n2 3 0.", "truncated final line"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEdgeList(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("input %q: expected error", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("input %q: error %q does not mention %q", tc.in, err, tc.want)
			}
		})
	}

	// Large inferred ID is valid, just big.
	g, err := ReadEdgeList(strings.NewReader("0 999999\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 1000000 {
		t.Errorf("inferred n = %d", g.N)
	}
}

// FuzzReadEdgeList: the reader never panics on arbitrary bytes, it gives
// the oracle's CSR bit for bit or fails with the oracle's error text, and a
// graph it accepts comes back unchanged from WriteEdgeList -> ReadEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"# scalegnn edgelist v1\n# nodes 4 directed false\n0 1\n1 2 0.5\n2 3\n",
		"0 1\n# nodes 3 directed true\n1 2\n", // header after edges
		"0 1\n1 2",                            // truncated last line
		"2147483648 0\n",
		"# nodes 99999999999\n",
		"0 1 NaN\n",
		// Parallel edges that cancel: summed per direction in sort order they
		// once gave w(0,1)=15 and w(1,0)=12.
		"0 1 3\n0 1 3\n0 1 3\n0 1 3\n0 1 -1e16\n0 1 1e16\n0 1 1\n",
		"+1 2\n",                        // signed id: strconv's value
		"-0 1\n",                        // minus zero is node 0
		"9223372036854775808 0\n",       // 19 digits: one past MaxInt64
		"0\t1\r\n1\v2\f0.5\n\t2 3 \r\n", // every ASCII separator
		"0\u00a01\n1 2\u00a03\n",        // U+00A0 splits as white space
		" 0 1\n" + strings.Repeat(" ", 70000) + "1 2\n# " + strings.Repeat("x", 70000) + "\n2 3\n", // lines past the 64 KiB buffer
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if namesHugeGraph(data) {
			t.Skip()
		}
		g, err := ReadEdgeList(bytes.NewReader(data))
		want, werr := readEdgeListOracle(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("error %v, oracle %v", err, werr)
		}
		if err != nil {
			return
		}
		if !sameCSR(g, want) {
			t.Fatalf("reader and oracle differ\n got: %+v\nwant: %+v", g, want)
		}
		for _, w := range g.Weights {
			if math.IsInf(w, 0) {
				// Parallel edges are merged by summing, which can overflow;
				// the reader rejects the infinity the writer would emit.
				t.Skip()
			}
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-reading the written graph: %v", err)
		}
		// The writer emits each undirected edge once (u <= v); the round trip
		// reproduces both arcs' weights only because Build sums an edge's
		// parallel copies once and mirrors the result.
		if g2.N != g.N || g2.Undirected() != g.Undirected() || !slices.Equal(g2.Offsets, g.Offsets) ||
			!slices.Equal(g2.Adj, g.Adj) || !slices.Equal(g2.Weights, g.Weights) {
			t.Fatalf("round trip changed the graph\n in: %+v\nout: %+v", g, g2)
		}
	})
}

// namesHugeGraph reports whether data holds a number the reader would accept
// as a node id or count and size its offsets array by: a digit run valued in
// (1<<20, MaxInt32]. Larger numbers are rejected before anything is
// allocated, so those inputs stay in.
func namesHugeGraph(data []byte) bool {
	for i := 0; i < len(data); {
		j := i
		for j < len(data) && '0' <= data[j] && data[j] <= '9' {
			j++
		}
		if j == i {
			i++
			continue
		}
		if v, err := strconv.ParseUint(string(data[i:j]), 10, 64); err == nil && v > 1<<20 && v <= math.MaxInt32 {
			return true
		}
		i = j
	}
	return false
}

// edgeListText is an undirected edge list in WriteEdgeList's format with
// uniformly random endpoints: nodes and edges as given, self-loops allowed.
func edgeListText(nodes, edges int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0))
	buf := fmt.Appendf(nil, "# scalegnn edgelist v1\n# nodes %d directed false\n", nodes)
	for range edges {
		buf = strconv.AppendInt(buf, int64(rng.IntN(nodes)), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(rng.IntN(nodes)), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// TestReadEdgeListAllocs: parsing allocates nothing per line, only the
// Builder's growing edge slice and the CSR itself (strings.Fields and
// strconv once made about two allocations a line).
func TestReadEdgeListAllocs(t *testing.T) {
	data := edgeListText(20000, 200000, 1)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := ReadEdgeList(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("ReadEdgeList of 200 000 lines made %.0f allocations, want <= 100", allocs)
	}
}

// BenchmarkReadEdgeList parses and builds an edge list the size of the
// fullbatch_gcn benchmark input: 20 000 nodes, 250 000 undirected edges.
func BenchmarkReadEdgeList(b *testing.B) {
	data := edgeListText(20000, 250000, 42)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := ReadEdgeList(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
