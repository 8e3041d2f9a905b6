package dataset

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// TestConfigCheck holds Generate and Load (from a file and without one) to
// the same split and noise checks, NaN included: a negative TrainFrac used
// to panic inside Split, and a NaN noise trained on NaN features.
func TestConfigCheck(t *testing.T) {
	graphPath, labelPath := writeSBMFiles(t)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name            string
		train, val, std float64
		ok              bool
	}{
		{"train -0.1", -0.1, 0.2, 1, false},
		{"val -0.1", 0.5, -0.1, 1, false},
		{"train NaN", nan, 0.2, 1, false},
		{"val NaN", 0.5, nan, 1, false},
		{"train +Inf", inf, 0.2, 1, false},
		{"sum 1.1", 0.6, 0.5, 1, false},
		{"noise NaN", 0.5, 0.2, nan, false},
		{"noise -1", 0.5, 0.2, -1, false},
		{"noise +Inf", 0.5, 0.2, inf, false},
		{"noise 0", 0.5, 0.2, 0, true},
		{"sum 1", 0.7, 0.3, 1, true},
		{"no train", 0, 0, 1, true},
	} {
		cfg := defaultConfig()
		cfg.TrainFrac, cfg.ValFrac, cfg.NoiseStd = c.train, c.val, c.std
		for _, load := range []struct {
			name string
			run  func() (*Dataset, error)
		}{
			{"Generate", func() (*Dataset, error) { return Generate(cfg) }},
			{"Load(generated)", func() (*Dataset, error) { return Load("", "", cfg) }},
			{"Load(file)", func() (*Dataset, error) { return Load(graphPath, labelPath, cfg) }},
		} {
			if _, err := load.run(); (err == nil) != c.ok {
				t.Errorf("%s: %s err = %v, want ok=%v", c.name, load.name, err, c.ok)
			}
		}
	}
}

// TestLoadRejectsNegativeWeight: a negative or infinite summed arc weight
// makes every normalized operator NaN, so Load refuses it and names the
// arc and the weight. Weight 0, and a negative copy that its parallel twin
// outweighs, load.
func TestLoadRejectsNegativeWeight(t *testing.T) {
	cfg := defaultConfig()
	for _, c := range []struct {
		name, edges string
		want        string // "" = accepted
	}{
		{"negative", "0 1\n1 2 -100\n2 3\n", "arc 1→2 has weight -100"},
		{"negative sum", "0 1 -1\n0 1 -2\n2 3\n", "arc 0→1 has weight -3"},
		{"sum overflows", "0 1 1e308\n1 0 1e308\n2 3\n", "arc 0→1 has weight +Inf"},
		{"zero", "0 1\n1 2 0\n2 3\n", ""},
		{"parallel sum 1", "0 1 -1\n0 1 2\n2 3\n", ""},
	} {
		path := writeFile(t, "# nodes 4 directed false\n"+c.edges)
		_, err := Load(path, "", cfg)
		if c.want == "" && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestLoadRejectsEdgelessGraph: an edge list with nodes but no arcs would
// train every model on its features alone and report homophily 0, so Load
// refuses it, naming the file.
func TestLoadRejectsEdgelessGraph(t *testing.T) {
	path := writeFile(t, "# nodes 100 directed false\n")
	_, err := Load(path, "", defaultConfig())
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "no arcs") {
		t.Fatalf("error %v, want one naming %s and \"no arcs\"", err, path)
	}
}
