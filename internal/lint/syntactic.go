package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// syntactic.go is the single-node pass: "construct X is forbidden in
// these packages". Each rule is one row under the check that names and
// scopes it; RunChecks walks every file of a package once and offers each
// node to every applicable row.

// rule is one row of the syntactic pass: a node match accepts is reported
// with msg, formatted with the arguments match returns.
type rule struct {
	tests bool // test files too: they are parsed but not type-checked
	match func(p *Package, n ast.Node) (args []any, ok bool)
	msg   string
}

// boundRule is a rule with the reporter of its check.
type boundRule struct {
	rule
	r *Reporter
}

// runRules offers every node of every file to each row.
func runRules(p *Package, rows []boundRule) {
	if len(rows) == 0 {
		return
	}
	for i, f := range p.AllFiles() {
		test := i >= len(p.Files)
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			for _, row := range rows {
				if test && !row.tests {
					continue
				}
				if args, ok := row.match(p, n); ok {
					row.r.Report(n.Pos(), row.msg, args...)
				}
			}
			return true
		})
	}
}

// nakedGo: all data-parallel chunking goes through internal/par, the one
// deterministic, race-tested partitioner; anything else needs an explicit
// suppression. Test files too: a racy helper goroutine in a test corrupts
// exactly the signal the -race pass is supposed to give.
var nakedGo = []rule{{
	tests: true,
	match: func(_ *Package, n ast.Node) ([]any, bool) {
		_, ok := n.(*ast.GoStmt)
		return nil, ok
	},
	msg: "goroutine spawned outside internal/par; route data-parallel work through par.Range or justify with //lint:ignore naked-go <reason>",
}}

// epochLoop: the engine extraction removed eight near-identical copies of
// the permutation/early-stopping/timing scaffolding from the model
// families; these rows keep them from growing back. A for statement walks
// an epoch counter when its init binds an epoch-named variable, or when
// its condition is bounded by an .Epochs field (the schedule knob).
var epochLoop = []rule{
	{
		tests: true,
		match: func(_ *Package, n ast.Node) ([]any, bool) {
			if loop, ok := n.(*ast.ForStmt); ok {
				if name := epochVar(loop); name != "" {
					return []any{name}, true
				}
			}
			return nil, false
		},
		msg: "hand-rolled epoch loop over %q; drive the schedule through internal/train (train.Run + BatchSource)",
	},
	{
		tests: true,
		match: func(_ *Package, n ast.Node) ([]any, bool) {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond == nil || epochVar(loop) != "" {
				return nil, false
			}
			found := false
			ast.Inspect(loop.Cond, func(m ast.Node) bool {
				if sel, ok := m.(*ast.SelectorExpr); ok && sel.Sel.Name == "Epochs" {
					found = true
				}
				return !found
			})
			return nil, found
		},
		msg: "loop bounded by .Epochs; drive the schedule through internal/train (train.Run + BatchSource)",
	},
}

// epochVar returns the epoch-named variable ("epoch", "ep", "numEpoch",
// "epoch_i", ...) a for statement's init binds, or "".
func epochVar(loop *ast.ForStmt) string {
	if assign, ok := loop.Init.(*ast.AssignStmt); ok {
		for _, lhs := range assign.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if lower := strings.ToLower(id.Name); lower == "ep" || strings.Contains(lower, "epoch") {
					return id.Name
				}
			}
		}
	}
	return ""
}

// durableWrite: inside the checkpoint package, files reach their final
// path only through the temp-file → fsync → rename → dir-fsync helper
// (WriteFileDurable). Opening a final path for writing directly would let
// a crash leave a torn file under a checkpoint name; os.CreateTemp is the
// sanctioned entry point. Test files are exempt: corruption tests write
// torn bytes on purpose.
var durableWrite = []rule{{
	match: func(p *Package, n ast.Node) ([]any, bool) {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := p.calleeFunc(call); isFunc(fn, "os", "Create", "OpenFile", "WriteFile") {
				return []any{fn.Name()}, true
			}
		}
		return nil, false
	},
	msg: "os.%s writes a final path directly; checkpoint files must go through WriteFileDurable (temp+rename) so a crash never leaves a torn file under a checkpoint name",
}}

// globalRand: every run with the same seed must be bitwise identical.
// math/rand (v1) shares hidden global state, package-level RNG values are
// shared state consumed in call-interleaving order, and time-based seeding
// makes a run unrepeatable by construction.
var globalRand = []rule{
	{
		match: func(_ *Package, n ast.Node) ([]any, bool) {
			imp, ok := n.(*ast.ImportSpec)
			if !ok {
				return nil, false
			}
			path, _ := strconv.Unquote(imp.Path.Value)
			return nil, path == "math/rand"
		},
		msg: "math/rand (v1) has hidden global state; use math/rand/v2 with an injected *rand.Rand (tensor.NewRand)",
	},
	{
		match: func(p *Package, n ast.Node) ([]any, bool) {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return nil, false
			}
			// Package level: the innermost scope is the file's.
			if s := p.Types.Scope().Innermost(vs.Pos()); s == nil || s.Parent() != p.Types.Scope() {
				return nil, false
			}
			return nil, mentions(p, vs, func(obj types.Object) bool {
				return obj.Pkg() != nil && (obj.Pkg().Path() == "math/rand" || obj.Pkg().Path() == "math/rand/v2")
			})
		},
		msg: "package-level RNG state breaks run-to-run reproducibility; inject a *rand.Rand instead",
	},
	{
		match: func(p *Package, n ast.Node) ([]any, bool) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return nil, false
			}
			fn := p.calleeFunc(call)
			ctor := []string{"New", "NewPCG", "NewChaCha8", "NewSource", "NewZipf"}
			if !isFunc(fn, "math/rand/v2", ctor...) && !isFunc(fn, "math/rand", ctor...) && !isFunc(fn, "internal/tensor", "NewRand") {
				return nil, false
			}
			for _, arg := range call.Args {
				if mentions(p, arg, func(obj types.Object) bool {
					fn, ok := obj.(*types.Func)
					return ok && isFunc(fn, "time", "Now")
				}) {
					return nil, true
				}
			}
			return nil, false
		},
		msg: "time-based RNG seeding makes runs unreproducible; use a fixed or flag-provided seed",
	},
}

// mentions reports whether any identifier under n refers to an object
// want accepts.
func mentions(p *Package, n ast.Node, want func(types.Object) bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil && want(obj) {
				found = true
			}
		}
		return !found
	})
	return found
}
