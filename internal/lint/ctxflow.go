package lint

import (
	"go/ast"
	"go/types"
)

// ctxflow.go implements ctx-flow, the cancellation-plumbing check:
//
//  1. context.Background() / context.TODO() may appear only inside the
//     lexical func main of a package main (the process root owns the root
//     context). Everywhere else the context must arrive as a parameter —
//     minting a fresh root mid-stack detaches the callee from shutdown.
//  2. In a function that takes a context.Context parameter, every call to
//     a callee that accepts a context must receive a context DERIVED from
//     that parameter (the parameter itself, or a With* / source-call
//     child of it). Passing a context pulled from a struct field or
//     package variable silently rebinds the callee to a different
//     lifetime; the reaching-definitions pass flags exactly those
//     foreign-only arguments.
//
// Test files are not type-checked by the loader, so tests are exempt from
// both rules by construction.

const (
	ctxDerived flowState = 1 << iota
	ctxForeign
)

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// calleeSig resolves the signature a call invokes, or nil for conversions
// and builtins.
func calleeSig(p *Package, call *ast.CallExpr) *types.Signature {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	if tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func runCtxFlow(_ *Program, p *Package, r *Reporter) {
	for _, f := range p.Files {
		// Rule 1 at package scope: no root contexts in var initializers.
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok {
				reportRootCtxCalls(p, r, gd)
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Rule 1: the lexical func main of a package main (closures
			// included) owns the root context; everyone else borrows.
			if !(p.Types.Name() == "main" && fd.Recv == nil && fd.Name.Name == "main") {
				reportRootCtxCalls(p, r, fd.Body)
			}
			// Rule 2 applies to every function unit with its own ctx param.
			analyzeCtxFunc(p, r, fd.Type, fd.Body)
			forEachFuncLit(fd.Body, func(lit *ast.FuncLit) {
				analyzeCtxFunc(p, r, lit.Type, lit.Body)
			})
		}
	}
}

// reportRootCtxCalls flags every context.Background/TODO call under root.
func reportRootCtxCalls(p *Package, r *Reporter, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := p.calleeFunc(call); isFunc(fn, "context", "Background", "TODO") {
			r.Report(call.Pos(), "context.%s() outside func main detaches this code from cancellation; accept a ctx parameter instead", fn.Name())
		}
		return true
	})
}

type ctxAnalysis struct {
	p *Package
}

// analyzeCtxFunc runs rule 2 over one function unit (decl or literal)
// that declares a context parameter.
func analyzeCtxFunc(p *Package, r *Reporter, ftype *ast.FuncType, body *ast.BlockStmt) {
	entry := make(flowFact)
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, id := range field.Names {
				obj := p.Info.Defs[id]
				if obj != nil && isCtxType(obj.Type()) {
					entry[obj] = ctxDerived
				}
			}
		}
	}
	if len(entry) == 0 {
		return // no ctx parameter: rule 2 out of scope
	}
	c := &ctxAnalysis{p: p}
	cfg := FuncCFG(body)
	in := forwardFlow(cfg, entry, func(n ast.Node, fact flowFact) {
		c.transfer(n, fact)
	})
	for _, blk := range cfg.Blocks {
		fact, ok := in[blk]
		if !ok || blk == cfg.Exit {
			continue
		}
		fact = fact.clone()
		for _, n := range blk.Nodes {
			c.checkNode(n, fact, r)
			c.transfer(n, fact)
		}
	}
}

// transfer rebinds the abstract state of ctx-typed locals on assignment.
func (c *ctxAnalysis) transfer(n ast.Node, fact flowFact) {
	names, values := bindings(n)
	for i, id := range names {
		obj := c.p.Info.Defs[id]
		if obj == nil {
			obj = c.p.Info.Uses[id]
		}
		if obj == nil || !isCtxType(obj.Type()) {
			continue
		}
		fact[obj] = c.classify(values[i], fact)
	}
	// Multi-value binds (ctx, cancel := context.WithCancel(...)) don't
	// match bindings' len guard; handle them explicitly.
	if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			st := c.classify(call, fact)
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := c.p.Info.Defs[id]
				if obj == nil {
					obj = c.p.Info.Uses[id]
				}
				if obj != nil && isCtxType(obj.Type()) {
					fact[obj] = st
				}
			}
		}
	}
}

// classify maps a context-valued expression to its abstract state:
// derived from this function's parameter, or foreign.
func (c *ctxAnalysis) classify(e ast.Expr, fact flowFact) flowState {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := c.p.Info.Uses[e]; obj != nil {
			if st, ok := fact[obj]; ok {
				return st
			}
		}
		return ctxForeign
	case *ast.CallExpr:
		if isFunc(c.p.calleeFunc(e), "context", "Background", "TODO") {
			return ctxDerived // rule 1 owns the placement complaint
		}
		// A call that itself takes a context inherits the derivedness of
		// what it was given (context.WithCancel, WithTimeout, helpers).
		if sig := calleeSig(c.p, e); sig != nil && !sig.Variadic() {
			for i := 0; i < sig.Params().Len() && i < len(e.Args); i++ {
				if isCtxType(sig.Params().At(i).Type()) {
					return c.classify(e.Args[i], fact)
				}
			}
		}
		// Fresh from a source object (req.Context() and friends).
		return ctxDerived
	}
	return ctxForeign
}

// checkNode reports calls whose context argument is foreign-only.
func (c *ctxAnalysis) checkNode(n ast.Node, fact flowFact, r *Reporter) {
	// A range statement's body lives in its own blocks; only the operand
	// evaluates at the loop head.
	if rs, ok := n.(*ast.RangeStmt); ok {
		c.checkNode(rs.X, fact, r)
		return
	}
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sig := calleeSig(c.p, call)
		if sig == nil || sig.Variadic() {
			return true
		}
		for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
			if !isCtxType(sig.Params().At(i).Type()) {
				continue
			}
			if c.classify(call.Args[i], fact)&ctxDerived == 0 {
				r.Report(call.Args[i].Pos(), "context passed here is not derived from this function's ctx parameter; thread the parameter through so cancellation propagates")
			}
		}
		return true
	})
}
