package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
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

// TestRepoIsClean is the self-hosting gate: the full suite must run clean
// over the real repository. A regression anywhere in internal/ or cmd/
// fails this test before it ever reaches CI's gnnlint step.
func TestRepoIsClean(t *testing.T) {
	l := newTestLoader(t)
	dirs, err := l.ExpandPatterns([]string{l.ModDir + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole repo, got %d packages", len(pkgs))
	}
	diags, err := RunChecks(l, pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
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
