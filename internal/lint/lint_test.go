package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	pathpkg "path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"scalegnn/internal/core"
)

// newTestLoader returns a loader rooted at the real module (two levels up).
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

var wantRE = regexp.MustCompile(`// want (.*)$`)
var wantArgRE = regexp.MustCompile(`"([^"]*)"`)

// collectWants scans a fixture package's files for `// want "substr"...`
// comments and returns the expected (file:line, substring) pairs.
func collectWants(fset *token.FileSet, files []*ast.File) map[string][]string {
	wants := make(map[string][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					wants[key] = append(wants[key], arg[1])
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<dir>, runs exactly one check, and matches
// the diagnostics against the fixture's want comments one-for-one.
func runFixture(t *testing.T, dir, check string) {
	t.Helper()
	l := newTestLoader(t)
	p, err := l.LoadDir(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunChecks(l, []*Package{p}, []string{check})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatalf("check %s reported nothing on its fixture", check)
	}
	wants := collectWants(l.Fset, p.AllFiles())

	got := make(map[string][]string)
	for _, d := range diags {
		if d.Check != check {
			t.Errorf("unexpected check name %q in diagnostic %s", d.Check, d)
		}
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		got[key] = append(got[key], d.Message)
	}

	for key, subs := range wants {
		msgs := got[key]
		if len(msgs) != len(subs) {
			t.Errorf("%s: want %d diagnostic(s), got %d: %v", key, len(subs), len(msgs), msgs)
			continue
		}
		for _, sub := range subs {
			found := false
			for _, msg := range msgs {
				if strings.Contains(msg, sub) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: no diagnostic containing %q (got %v)", key, sub, msgs)
			}
		}
	}
	for key, msgs := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected diagnostic(s) %v", key, msgs)
		}
	}
}

func TestNakedGoFixture(t *testing.T)        { runFixture(t, "nakedgo", "naked-go") }
func TestBufFlowFixture(t *testing.T)        { runFixture(t, "bufflow", "buf-flow") }
func TestGlobalRandFixture(t *testing.T)     { runFixture(t, "globalrand", "global-rand") }
func TestEpochLoopFixture(t *testing.T)      { runFixture(t, "epochloop", "epoch-loop") }
func TestUncheckedErrorFixture(t *testing.T) { runFixture(t, "uncheckederr", "unchecked-error") }
func TestSpanEndFixture(t *testing.T)        { runFixture(t, "spanend", "obs-span-end") }
func TestDurableWriteFixture(t *testing.T)   { runFixture(t, "ckpt", "durable-write") }
func TestCtxFlowFixture(t *testing.T)        { runFixture(t, "ctxflow", "ctx-flow") }
func TestConnDeadlineFixture(t *testing.T)   { runFixture(t, "distnet", "conn-deadline") }

var repo struct {
	once sync.Once
	l    *Loader
	pkgs []*Package
	err  error
}

// loadRepo type-checks every package of the real module once per test
// binary; the repo-wide tests below share the result.
func loadRepo(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	repo.once.Do(func() {
		l, err := NewLoader(".")
		if err != nil {
			repo.err = err
			return
		}
		dirs, err := l.ExpandPatterns([]string{l.ModDir + "/..."})
		if err != nil {
			repo.err = err
			return
		}
		for _, dir := range dirs {
			p, err := l.LoadDir(dir)
			if err != nil {
				repo.err = fmt.Errorf("loading %s: %w", dir, err)
				return
			}
			repo.pkgs = append(repo.pkgs, p)
		}
		repo.l = l
	})
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	if len(repo.pkgs) < 10 {
		t.Fatalf("expected to load the whole repo, got %d packages", len(repo.pkgs))
	}
	return repo.l, repo.pkgs
}

// TestRepoIsClean is the self-hosting gate: the full suite must run clean
// over the real repository. A regression anywhere in internal/ or cmd/
// fails this test before it ever reaches CI's gnnlint step.
func TestRepoIsClean(t *testing.T) {
	l, pkgs := loadRepo(t)
	diags, err := RunChecks(l, pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestEveryExportIsClaimed: every exported package-level function declared
// in a non-test file under internal/ is referenced from outside its own
// package — by non-test code of the module, by the benchmark module, or by
// another package's tests. An unclaimed one is reported "delete" when its
// own package's non-test code does not use it either, else "unexport".
func TestEveryExportIsClaimed(t *testing.T) {
	l, pkgs := loadRepo(t)
	type key struct{ pkg, name string }
	claimed := map[key]bool{}
	usedInside := map[*types.Func]bool{}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			f, ok := obj.(*types.Func)
			if !ok || f.Pkg() == nil {
				continue
			}
			f = f.Origin()
			if f.Pkg() == p.Types {
				usedInside[f] = true
			} else {
				claimed[key{f.Pkg().Path(), f.Name()}] = true
			}
		}
	}
	// Test files and the benchmark module are not type-checked here;
	// resolve their qualified identifiers through each file's imports.
	claimSyntax := func(from string, f *ast.File) {
		names := map[string]string{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == from {
				continue
			}
			name := pathpkg.Base(path)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names[name] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && names[x.Name] != "" {
					claimed[key{names[x.Name], sel.Sel.Name}] = true
				}
			}
			return true
		})
	}
	for _, p := range pkgs {
		for _, f := range p.TestFiles {
			claimSyntax(p.Path, f)
		}
	}
	benchDir := filepath.Join(l.ModDir, "benchmark")
	err := filepath.WalkDir(benchDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err == nil {
			claimSyntax("", f)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, l.ModPath+"/internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !fd.Name.IsExported() || claimed[key{p.Path, fd.Name.Name}] {
					continue
				}
				verdict := "delete"
				if usedInside[p.Info.Defs[fd.Name].(*types.Func)] {
					verdict = "unexport"
				}
				t.Errorf("%s: %s.%s has no caller outside its package: %s",
					l.Fset.Position(fd.Pos()), p.Types.Name(), fd.Name.Name, verdict)
			}
		}
	}
}

// TestRegistrySymbolsResolve: every symbol the Figure 1 registry credits
// names a declared func, type or method. "Name" is looked up in the leaf's
// package, "pkg.Name" in the sibling package pkg, "Type.Method" as a method,
// and a parenthesised annotation is ignored.
func TestRegistrySymbolsResolve(t *testing.T) {
	l, pkgs := loadRepo(t)
	byPath := map[string]*types.Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p.Types
	}
	for _, tech := range core.Registry() {
		for _, sym := range tech.Symbols {
			name, _, _ := strings.Cut(sym, "(")
			path := l.ModPath + "/" + tech.Package
			parts := strings.Split(name, ".")
			if !ast.IsExported(parts[0]) {
				path, parts = pathpkg.Dir(path)+"/"+parts[0], parts[1:]
			}
			if !resolves(byPath[path], parts) {
				t.Errorf("%s: symbol %q does not resolve in %s", tech.Leaf, sym, path)
			}
		}
	}
}

// resolves reports whether parts ("Name" or "Type.Method") names a func,
// type or method declared in pkg.
func resolves(pkg *types.Package, parts []string) bool {
	if pkg == nil || len(parts) == 0 || len(parts) > 2 {
		return false
	}
	switch obj := pkg.Scope().Lookup(parts[0]).(type) {
	case *types.Func:
		return len(parts) == 1
	case *types.TypeName:
		if len(parts) == 1 {
			return true
		}
		m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, parts[1])
		_, ok := m.(*types.Func)
		return ok
	}
	return false
}

// TestExpandPatternsSkipsTestdata ensures fixtures with deliberate
// violations never leak into a real ./... run.
func TestExpandPatternsSkipsTestdata(t *testing.T) {
	l := newTestLoader(t)
	dirs, err := l.ExpandPatterns([]string{l.ModDir + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("ExpandPatterns returned testdata dir %s", d)
		}
	}
	if !sort.StringsAreSorted(dirs) {
		t.Error("ExpandPatterns output not sorted")
	}
}

// TestUnknownCheckRejected: a typo in -checks must error, not silently run
// nothing.
func TestUnknownCheckRejected(t *testing.T) {
	l := newTestLoader(t)
	if _, err := RunChecks(l, nil, []string{"no-such-check"}); err == nil {
		t.Fatal("unknown check name accepted")
	}
}

// TestIgnoreDirectiveRequiresReason pins the suppression contract at the
// regexp level: a bare directive matches nothing.
func TestIgnoreDirectiveRequiresReason(t *testing.T) {
	if ignoreRE.MatchString("//lint:ignore naked-go") {
		t.Error("directive without reason should not parse")
	}
	if !ignoreRE.MatchString("//lint:ignore naked-go because reasons") {
		t.Error("directive with reason should parse")
	}
	if !ignoreRE.MatchString("// lint:ignore buf-flow handed to caller") {
		t.Error("directive with space after // should parse")
	}
}
