// Package lint implements gnnlint, scalegnn's project-specific static
// analyzer. It machine-checks the conventions the zero-allocation training
// hot path depends on (see DESIGN.md "Enforced invariants"):
//
//   - naked-go: goroutines are spawned only by internal/par, so every
//     parallel kernel chunks work through the one race-tested partitioner.
//   - buf-flow: path-sensitive workspace-buffer lifetimes — no
//     use-after-release, no double-release, no leak on early returns or
//     error paths; ownership handoff to callees is resolved through
//     call-graph summaries.
//   - global-rand: no package-level RNG state or time-based seeding in
//     internal/ and cmd/; randomness is injected as *rand.Rand.
//   - unchecked-error: no error return silently dropped as a bare call
//     statement in internal/ and cmd/.
//   - epoch-loop: no hand-rolled `for epoch := ...` training loops outside
//     internal/train; models use train.Run and train.Batches.
//   - obs-span-end: tracing spans (internal/obs) are ended on every path
//     through the acquiring function, or visibly handed off, so traced
//     timelines never silently lose sections.
//   - durable-write: the ckpt package never opens a final path for writing
//     directly; checkpoint bytes reach disk only through the crash-safe
//     temp+rename helper (ckpt.WriteFileDurable).
//   - ctx-flow: context.Background/TODO only in func main; a ctx parameter
//     must flow to every callee that accepts one.
//   - conn-deadline: in internal/distnet, every net.Conn Read/Write is
//     preceded on its dataflow path by a SetRead/WriteDeadline on the same
//     connection — the deadline is the peer-failure detector.
//
// The analyzer is built only on the stdlib go/parser, go/ast, go/types, and
// go/token packages — the repo has no external dependencies and the linter
// keeps it that way. buf-flow, obs-span-end and conn-deadline are three
// resource descriptions (resources.go) run by one typestate engine
// (typestate.go, summary.go); ctx-flow shares its basic-block CFG (cfg.go)
// and union-merge worklist (dataflow.go). naked-go, epoch-loop,
// durable-write and global-rand are rows of one syntactic pass
// (syntactic.go). Findings are suppressed per site with
//
//	//lint:ignore <check> <reason>
//
// on the offending line or the line above it; the reason is mandatory (a
// directive without one suppresses nothing).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Check is one named analyzer: a per-package Run, or rows of the shared
// syntactic pass.
type Check struct {
	Name string
	Doc  string
	// Applies filters by import path; nil means every package.
	Applies func(pkgPath string) bool
	Run     func(prog *Program, p *Package, r *Reporter)
	Rules   []rule
}

// Checks returns the full suite for a module, in stable order.
func Checks(modPath string) []*Check {
	inScope := func(pkgPath string) bool {
		// The training/serving stack; examples stay demo-grade.
		return strings.HasPrefix(pkgPath, modPath+"/internal/") ||
			strings.HasPrefix(pkgPath, modPath+"/cmd/")
	}
	return []*Check{
		{
			Name:    "naked-go",
			Doc:     "go statements are allowed only inside internal/par (and an explicit allowlist)",
			Applies: func(pkgPath string) bool { return pkgPath != modPath+"/internal/par" },
			Rules:   nakedGo,
		},
		{
			Name: "buf-flow",
			Doc:  "workspace buffers: no use-after-release, no double-release, no leak on any path; handoff via call-graph summaries",
			Run:  bufFlow.run,
		},
		{
			Name:    "global-rand",
			Doc:     "no package-level RNG state, math/rand v1, or time-based seeding; inject *rand.Rand",
			Applies: inScope,
			Rules:   globalRand,
		},
		{
			Name: "epoch-loop",
			Doc:  "no hand-rolled `for epoch := ...` training loops outside internal/train; use train.Run and train.Batches",
			Applies: func(pkgPath string) bool {
				return inScope(pkgPath) && pkgPath != modPath+"/internal/train"
			},
			Rules: epochLoop,
		},
		{
			Name:    "unchecked-error",
			Doc:     "no error return dropped as a bare call statement",
			Applies: inScope,
			Run:     runUncheckedError,
		},
		{
			Name: "obs-span-end",
			Doc:  "tracing spans: ended exactly once on every path through the acquiring function, or handed off",
			Run:  obsSpanEnd.run,
		},
		{
			Name: "durable-write",
			Doc:  "checkpoint files must go through WriteFileDurable (temp+rename); no direct os.Create/OpenFile/WriteFile on final paths in the ckpt package",
			Applies: func(pkgPath string) bool {
				return strings.HasSuffix(pkgPath, "/ckpt")
			},
			Rules: durableWrite,
		},
		{
			Name:    "ctx-flow",
			Doc:     "context.Background/TODO only in func main; a ctx parameter must flow, derived, to every callee accepting a context",
			Applies: inScope,
			Run:     runCtxFlow,
		},
		{
			Name: "conn-deadline",
			Doc:  "distnet net.Conn Read/Write must be preceded by SetRead/WriteDeadline on every path; the deadline is the failure detector",
			Applies: func(pkgPath string) bool {
				return strings.HasSuffix(pkgPath, "/distnet")
			},
			Run: connDeadline.run,
		},
	}
}

// Reporter collects diagnostics for one package and applies suppressions.
type Reporter struct {
	fset  *token.FileSet
	check string
	diags *[]Diagnostic
	// ignores maps file -> line -> set of suppressed check names.
	ignores map[string]map[int]map[string]bool
}

// Report files a diagnostic at pos unless a matching //lint:ignore directive
// covers that line or the line above.
func (r *Reporter) Report(pos token.Pos, format string, args ...any) {
	p := r.fset.Position(pos)
	if lines, ok := r.ignores[p.Filename]; ok {
		for _, ln := range [2]int{p.Line, p.Line - 1} {
			if lines[ln][r.check] || lines[ln]["*"] {
				return
			}
		}
	}
	*r.diags = append(*r.diags, Diagnostic{Pos: p, Check: r.check, Message: fmt.Sprintf(format, args...)})
}

var ignoreRE = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s+\S`)

// collectIgnores indexes every well-formed //lint:ignore directive of the
// package by file and line. Directives missing a reason do not match and
// therefore suppress nothing — the finding they meant to silence stays
// visible, which is the enforcement.
func collectIgnores(fset *token.FileSet, files []*ast.File) map[string]map[int]map[string]bool {
	out := make(map[string]map[int]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := fset.Position(c.Pos())
				lines, ok := out[p.Filename]
				if !ok {
					lines = make(map[int]map[string]bool)
					out[p.Filename] = lines
				}
				if lines[p.Line] == nil {
					lines[p.Line] = make(map[string]bool)
				}
				lines[p.Line][m[1]] = true
			}
		}
	}
	return out
}

// RunChecks runs the selected checks over the loaded packages and returns
// all diagnostics sorted by position. names == nil runs the full suite.
func RunChecks(l *Loader, pkgs []*Package, names []string) ([]Diagnostic, error) {
	suite := Checks(l.ModPath)
	if names != nil {
		byName := make(map[string]*Check, len(suite))
		for _, c := range suite {
			byName[c.Name] = c
		}
		var sel []*Check
		for _, n := range names {
			c, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("lint: unknown check %q", n)
			}
			sel = append(sel, c)
		}
		suite = sel
	}
	prog := &Program{Loader: l}
	var diags []Diagnostic
	for _, p := range pkgs {
		ignores := collectIgnores(l.Fset, p.AllFiles())
		var rows []boundRule
		for _, c := range suite {
			if c.Applies != nil && !c.Applies(p.Path) {
				continue
			}
			r := &Reporter{fset: l.Fset, check: c.Name, diags: &diags, ignores: ignores}
			if c.Run != nil {
				c.Run(prog, p, r)
			}
			for _, row := range c.Rules {
				rows = append(rows, boundRule{row, r})
			}
		}
		runRules(p, rows)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Check < b.Check
	})
	return diags, nil
}
