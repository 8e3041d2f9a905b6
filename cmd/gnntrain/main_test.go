package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsInvalidGeneratorInputs runs gnntrain on generator inputs that
// used to train silently — on an empty graph, a "homophily=0.000" graph or
// NaN features. Each must exit non-zero and name the bad value.
func TestRejectsInvalidGeneratorInputs(t *testing.T) {
	buildBinaries(t)
	for _, c := range []struct{ flag, val, want string }{
		{"-deg", "NaN", "average degree NaN"},
		{"-deg", "-3", "average degree -3"},
		{"-homophily", "NaN", "homophily NaN"},
		{"-noise", "NaN", "noise std NaN"},
	} {
		out, err := exec.Command(gnntrainBin, "-model", "sage", "-nodes", "300", "-epochs", "2", c.flag, c.val).CombinedOutput()
		if err == nil {
			t.Errorf("%s %s: exit 0, want an error\n%s", c.flag, c.val, out)
		} else if !strings.Contains(string(out), c.want) {
			t.Errorf("%s %s: %v, output does not name %q:\n%s", c.flag, c.val, err, c.want, out)
		}
	}
}

// TestRejectsNegativeEdgeWeight: a -graph file with a negative edge weight
// exits 1 naming the weight; it used to train on NaN operator coefficients
// and report a model that predicts one class.
func TestRejectsNegativeEdgeWeight(t *testing.T) {
	buildBinaries(t)
	path := filepath.Join(t.TempDir(), "neg.edgelist")
	var b strings.Builder
	b.WriteString("# nodes 300 directed false\n")
	for u := range 300 {
		fmt.Fprintf(&b, "%d %d\n", u, (u+1)%300)
	}
	b.WriteString("0 19 -100\n")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(gnntrainBin, "-model", "gcn", "-epochs", "2", "-graph", path).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("negative weight: %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "weight -100") {
		t.Errorf("output does not name the weight -100:\n%s", out)
	}
}
