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

// TestGraphgenRejectsSizes: graphgen sizes the generators cannot honour
// exit 1 naming the value. They used to write a graph of another size
// (ba clamps n up to deg+1, er the edge count down to n(n-1)/2) or panic
// (path, er).
func TestGraphgenRejectsSizes(t *testing.T) {
	buildBinaries(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "ba", "-n", "0"}, "-n 0"},
		{[]string{"-kind", "ba", "-n", "-5"}, "-n -5"},
		{[]string{"-kind", "ba", "-n", "5", "-deg", "10"}, "-deg 10"},
		{[]string{"-kind", "ba", "-n", "5", "-deg", "0"}, "-deg 0"},
		{[]string{"-kind", "er", "-n", "0"}, "-n 0"},
		{[]string{"-kind", "er", "-n", "10", "-edges", "-1"}, "-edges -1"},
		{[]string{"-kind", "er", "-n", "3", "-edges", "4"}, "-edges 4"},
		{[]string{"-kind", "sbm", "-n", "-3"}, "-n -3"},
		{[]string{"-kind", "path", "-n", "-1"}, "-n -1"},
		{[]string{"-kind", "grid", "-rows", "0"}, "-rows 0"},
		{[]string{"-kind", "grid", "-cols", "-2"}, "-cols -2"},
	} {
		args := append(c.args, "-out", filepath.Join(t.TempDir(), "g.el"))
		out, err := exec.Command(graphgenBin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: %v, want exit status 1\n%s", c.args, err, out)
		} else if !strings.Contains(string(out), c.want) {
			t.Errorf("%v: output does not name %q:\n%s", c.args, c.want, out)
		}
	}
}

// TestGraphgenRoundTrip: an SBM graph and its labels written by graphgen
// train in gnntrain through -graph and -labels.
func TestGraphgenRoundTrip(t *testing.T) {
	buildBinaries(t)
	path := filepath.Join(t.TempDir(), "sbm.el")
	if out, err := exec.Command(graphgenBin, "-kind", "sbm", "-n", "2000", "-blocks", "4", "-out", path).CombinedOutput(); err != nil {
		t.Fatalf("graphgen: %v\n%s", err, out)
	}
	out, err := exec.Command(gnntrainBin, "-model", "sgc", "-epochs", "2", "-graph", path, "-labels", path+".labels").CombinedOutput()
	if err != nil {
		t.Fatalf("gnntrain: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "n=2000") {
		t.Errorf("gnntrain output does not report n=2000:\n%s", out)
	}
}
