package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// fileNames returns the base names of the files backing fs.
func fileNames(fset *token.FileSet, fs []*ast.File) []string {
	var out []string
	for _, f := range fs {
		out = append(out, filepath.Base(fset.Position(f.Pos()).Filename))
	}
	return out
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestLoadDirDefaultTags: under the default tag set the fault package
// loads registry.go (//go:build !nofault) and excludes its nofault twin —
// otherwise type checking would see every symbol twice.
func TestLoadDirDefaultTags(t *testing.T) {
	l := newTestLoader(t)
	p, err := l.LoadDir(filepath.Join(l.ModDir, "internal", "fault"))
	if err != nil {
		t.Fatal(err)
	}
	names := fileNames(l.Fset, p.Files)
	if !contains(names, "registry.go") {
		t.Errorf("default tags: registry.go missing from %v", names)
	}
	if contains(names, "registry_off.go") {
		t.Errorf("default tags: registry_off.go (//go:build nofault) wrongly included in %v", names)
	}
}

// TestLoadDirNofaultTag: under the nofault tag the file set flips to the
// stubbed registry, matching `go build -tags nofault` — the constraint,
// not the file name, decides, for test files too.
func TestLoadDirNofaultTag(t *testing.T) {
	l := newTestLoader(t)
	l.buildCtx.BuildTags = []string{"nofault"}
	p, err := l.LoadDir(filepath.Join(l.ModDir, "internal", "fault"))
	if err != nil {
		t.Fatal(err)
	}
	names := fileNames(l.Fset, p.Files)
	if !contains(names, "registry_off.go") {
		t.Errorf("-tags nofault: registry_off.go missing from %v", names)
	}
	if contains(names, "registry.go") {
		t.Errorf("-tags nofault: registry.go (//go:build !nofault) wrongly included in %v", names)
	}
	// fault_test.go is gated //go:build !nofault: it must drop out of the
	// syntax-only test-file set as well.
	if tn := fileNames(l.Fset, p.TestFiles); contains(tn, "fault_test.go") {
		t.Errorf("-tags nofault: fault_test.go wrongly included in %v", tn)
	}
}

// parseSnippet parses one file into a fresh FileSet for suppression tests.
func parseSnippet(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "snippet.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

// findLine returns the position of the first source line containing sub.
func findLine(t *testing.T, fset *token.FileSet, f *ast.File, src, sub string) token.Pos {
	t.Helper()
	idx := strings.Index(src, sub)
	if idx < 0 {
		t.Fatalf("%q not in test source", sub)
	}
	return fset.File(f.Pos()).Pos(idx)
}

// TestSuppressionsStackOnOneLine: a report line can be covered by two
// directives for different checks at once — a trailing comment on the
// line itself plus a full-line directive just above it.
func TestSuppressionsStackOnOneLine(t *testing.T) {
	src := `package x

//lint:ignore check-a chunking is handled by the caller
var V = loud() //lint:ignore check-b seeded deterministically in main

func loud() int { return 1 }
`
	fset, f := parseSnippet(t, src)
	ignores := collectIgnores(fset, []*ast.File{f})
	pos := findLine(t, fset, f, src, "var V")

	var diags []Diagnostic
	for _, check := range []string{"check-a", "check-b"} {
		r := &Reporter{fset: fset, check: check, diags: &diags, ignores: ignores}
		r.Report(pos, "finding for %s", check)
	}
	if len(diags) != 0 {
		t.Errorf("both directives should suppress their checks at this line, got %v", diags)
	}
	// An unrelated check at the same position still reports.
	r := &Reporter{fset: fset, check: "check-c", diags: &diags, ignores: ignores}
	r.Report(pos, "finding for check-c")
	if len(diags) != 1 {
		t.Errorf("unlisted check must not be suppressed, got %v", diags)
	}
}

// TestSuppressionMissingReasonRejected: a directive without a reason is
// not a directive — the finding it meant to silence stays visible.
func TestSuppressionMissingReasonRejected(t *testing.T) {
	src := `package x

//lint:ignore check-a
var V = 1
`
	fset, f := parseSnippet(t, src)
	ignores := collectIgnores(fset, []*ast.File{f})
	pos := findLine(t, fset, f, src, "var V")

	var diags []Diagnostic
	r := &Reporter{fset: fset, check: "check-a", diags: &diags, ignores: ignores}
	r.Report(pos, "finding that must survive")
	if len(diags) != 1 {
		t.Fatalf("reason-less directive suppressed a finding (got %d diagnostics)", len(diags))
	}
}
