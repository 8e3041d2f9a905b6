package main

import (
	"os/exec"
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
