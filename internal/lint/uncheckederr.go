package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// runUncheckedError flags calls whose error result is silently dropped as a
// bare statement (including deferred calls) in internal/ and cmd/. Dropping
// an error with an explicit `_ =` assignment is a visible decision and is
// not flagged. Writes that cannot fail are excluded: fmt.Print* to stdout,
// fmt.Fprint* to os.Stdout/os.Stderr, and writes to in-memory sinks
// (*strings.Builder, *bytes.Buffer).
func runUncheckedError(_ *Program, p *Package, r *Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			deferred := false
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
				deferred = true
			case *ast.GoStmt:
				call = n.Call
			}
			if call == nil || !returnsError(p, call) || isInfallibleWrite(p, call) {
				return true
			}
			what := "call"
			if deferred {
				what = "deferred call"
			}
			r.Report(call.Pos(), "%s drops its error result; handle it, or discard explicitly with `_ =` / //lint:ignore unchecked-error <reason>", what)
			return true
		})
	}
}

// returnsError reports whether any result of the call has type error.
func returnsError(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errType) {
				return true
			}
		}
		return false
	}
	return types.Identical(tv.Type, errType)
}

// isInfallibleWrite reports whether the call is a print/write that cannot
// meaningfully fail.
func isInfallibleWrite(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	// Methods on in-memory sinks.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if isInMemorySink(sig.Recv().Type()) {
			return true
		}
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println":
		return true
	}
	if strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 0 {
		arg := call.Args[0]
		if isStdStream(p, arg) {
			return true
		}
		if tv, ok := p.Info.Types[arg]; ok && tv.Type != nil && isInMemorySink(tv.Type) {
			return true
		}
	}
	return false
}

func isInMemorySink(t types.Type) bool {
	switch t.String() {
	case "*strings.Builder", "strings.Builder", "*bytes.Buffer", "bytes.Buffer":
		return true
	}
	return false
}

// isStdStream matches the expressions os.Stdout and os.Stderr.
func isStdStream(p *Package, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Stdout" && sel.Sel.Name != "Stderr") {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "os"
}
