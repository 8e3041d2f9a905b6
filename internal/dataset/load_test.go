package dataset

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"scalegnn/internal/tensor"
)

// writeSBMFiles writes an SBM edge list — each undirected edge once, in
// shuffled order and random orientation, every tenth one twice — and its
// label file, and returns the two paths.
func writeSBMFiles(t *testing.T) (graphPath, labelPath string) {
	t.Helper()
	ds, err := Generate(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRand(9)
	edges := ds.G.UndirectedEdges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var g bytes.Buffer
	fmt.Fprintf(&g, "# scalegnn edgelist v1\n# nodes %d directed false\n", ds.G.N)
	for i, e := range edges {
		if rng.IntN(2) == 0 {
			e.U, e.V = e.V, e.U
		}
		fmt.Fprintf(&g, "%d %d\n", e.U, e.V)
		if i%10 == 0 {
			fmt.Fprintf(&g, "%d\t%d 0.5\n", e.V, e.U)
		}
	}
	var l bytes.Buffer
	for _, y := range ds.Labels {
		fmt.Fprintln(&l, y)
	}
	dir := t.TempDir()
	graphPath, labelPath = filepath.Join(dir, "graph.edgelist"), filepath.Join(dir, "labels.txt")
	for path, b := range map[string][]byte{graphPath: g.Bytes(), labelPath: l.Bytes()} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return graphPath, labelPath
}

// TestLoadContentKey pins everything Load produces from a file — CSR
// offsets, targets and merged weights, features, labels and split — to the
// value the comparison-sort Builder and the strings-based reader gave.
func TestLoadContentKey(t *testing.T) {
	graphPath, labelPath := writeSBMFiles(t)
	cfg := Config{Classes: 5, FeatureDim: 16, NoiseStd: 1, TrainFrac: 0.5, ValFrac: 0.2, Seed: 3}
	ds, err := Load(graphPath, labelPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const want = 0x67acb526be82bf40
	if got := ds.ContentKey(); got != want {
		t.Fatalf("ContentKey = %#016x, want %#016x", got, want)
	}
}

// TestReadLabelsErrors: a malformed line is named by number, and a label
// count that differs from the node count is refused.
func TestReadLabelsErrors(t *testing.T) {
	cases := []struct {
		name, in string
		want     string
	}{
		{"bad line", "0\n1\nx\n", `line 3: strconv.Atoi: parsing "x": invalid syntax`},
		{"too few labels", "0\n1\n", "2 labels for 3 nodes"},
		{"too many labels", "0\n1\n2\n0\n", "4 labels for 3 nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := readLabels(writeFile(t, tc.in), 3)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("readLabels(%q) error %v, want %q", tc.in, err, tc.want)
			}
		})
	}
	labels, classes, err := readLabels(writeFile(t, "2\n+0\n007"), 3)
	if err != nil || classes != 8 || !slices.Equal(labels, []int{2, 0, 7}) {
		t.Fatalf("readLabels = %v, %d classes, %v; want [2 0 7], 8 classes", labels, classes, err)
	}
}

func writeFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "labels.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
