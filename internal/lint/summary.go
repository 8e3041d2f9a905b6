package lint

import (
	"go/ast"
	"go/types"
)

// summary.go is the interprocedural half of the typestate engine: a
// module-wide index from function object to declaration, and memoized
// per-callee parameter summaries for owned resources. Calls through func
// values and external functions stay unresolved, which the engine treats
// as an escape — silence, never a false report.

// Program is the whole-module view handed to every check: the loader
// (every module package it has loaded, requested or imported) and the
// lazily built interprocedural indexes.
type Program struct {
	Loader *Loader
	decls  map[*types.Func]*funcDecl
	sums   map[*resource]map[*funcDecl]*summary
}

type funcDecl struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// paramEffect classifies what a callee does with one tracked parameter.
type paramEffect int

const (
	paramUses     paramEffect = iota // reads only; caller still owns
	paramReleases                    // releases it on every normal exit
	paramEscapes                     // stores/returns/may-release; caller obligation ends
)

// summary is a callee's per-parameter effect vector, indexed by flattened
// parameter position.
type summary struct {
	effects []paramEffect
}

// sumInProgress marks a summary computation on the stack; a recursive
// lookup gets nil (treated as unknown → escape, silent).
var sumInProgress = &summary{}

// decl returns the module declaration of fn, or nil.
func (pr *Program) decl(fn *types.Func) *funcDecl {
	if pr.decls == nil {
		pr.decls = make(map[*types.Func]*funcDecl)
		for _, p := range pr.Loader.pkgs {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
							pr.decls[obj] = &funcDecl{fd, p}
						}
					}
				}
			}
		}
	}
	return pr.decls[fn]
}

// calleeFunc resolves a call's target through the type info; nil for
// conversions, builtins, and calls through func values.
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleeEffects resolves the per-argument effect vector for a call, or nil
// if the callee is unknown (func value, variadic mismatch, external) or
// the resource carries no obligation.
func (a *typestate) calleeEffects(call *ast.CallExpr) []paramEffect {
	fn := a.p.calleeFunc(call)
	if fn == nil || !a.res.owned() {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if !sig.Variadic() && sig.Params().Len() != len(call.Args) {
		return nil
	}
	if sig.Variadic() && (len(call.Args) < sig.Params().Len()-1 || call.Ellipsis.IsValid()) {
		return nil
	}
	// Interface methods follow the Score contract: out-parameters are
	// written into, never retained or released — a plain use.
	if sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		return make([]paramEffect, len(call.Args))
	}
	d := a.prog.decl(fn)
	if d == nil || d.decl.Body == nil {
		return nil
	}
	sum := a.prog.summaryFor(a.res, d)
	if sum == nil {
		return nil
	}
	if !sig.Variadic() {
		return sum.effects
	}
	// Map variadic-tail arguments to the summarized effect of the backing
	// slice parameter (the alias guards take kernels' operands this way).
	fixed := sig.Params().Len() - 1
	if fixed >= len(sum.effects) {
		return nil
	}
	effects := make([]paramEffect, len(call.Args))
	for i := range effects {
		effects[i] = sum.effects[min(i, fixed)]
	}
	return effects
}

// summaryFor memoizes computeSummary; a cycle yields nil (unknown).
func (pr *Program) summaryFor(res *resource, d *funcDecl) *summary {
	if pr.sums == nil {
		pr.sums = make(map[*resource]map[*funcDecl]*summary)
	}
	if pr.sums[res] == nil {
		pr.sums[res] = make(map[*funcDecl]*summary)
	}
	if s, ok := pr.sums[res][d]; ok {
		if s == sumInProgress {
			return nil
		}
		return s
	}
	pr.sums[res][d] = sumInProgress
	s := computeSummary(pr, res, d)
	pr.sums[res][d] = s
	return s
}

// computeSummary classifies every parameter of a declared module function
// by running the engine over its body with each tracked-type parameter
// Live, then reading the union of states on normal exits:
//
//	escaped anywhere            → escapes
//	live on some exit, released
//	on another (may-release)    → escapes (caller can't rely on either)
//	live on every exit          → uses
//	released on every exit      → releases
func computeSummary(pr *Program, res *resource, d *funcDecl) *summary {
	p := d.pkg
	flat := flattenParams(d.decl.Type)
	sum := &summary{effects: make([]paramEffect, len(flat))}
	variadic := false
	if fn, ok := p.Info.Defs[d.decl.Name].(*types.Func); ok {
		variadic = fn.Type().(*types.Signature).Variadic()
	}
	a := newTypestate(res, pr, p)
	entry := make(flowFact)
	objAt := make([]types.Object, len(flat))
	for i, id := range flat {
		if id == nil || id.Name == "_" {
			continue // unnamed parameters cannot be touched by the body
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			sum.effects[i] = paramEscapes
			continue
		}
		t := obj.Type()
		if variadic && i == len(flat)-1 {
			// A variadic parameter arrives as a slice; tracking the slice
			// identifier covers the alias-guard idiom (ranged, read, never
			// retained).
			if sl, ok := t.(*types.Slice); ok {
				t = sl.Elem()
			}
		}
		if !res.param(t) {
			// A value squeezed through any/interface{} could be stored.
			sum.effects[i] = paramEscapes
			continue
		}
		a.tracked[obj] = true
		entry[obj] = res.entry
		objAt[i] = obj
	}
	if len(a.tracked) == 0 {
		return sum
	}
	exitState := make(map[types.Object]flowState)
	sawExit := false
	a.walk(d.decl.Body, entry, nil, func(_ *Block, fact flowFact) {
		sawExit = true
		for obj := range a.tracked {
			exitState[obj] |= fact[obj]
		}
	})
	for i, obj := range objAt {
		if obj == nil {
			continue
		}
		st := exitState[obj]
		released := st&(stReleased|stDeferReleased) != 0
		switch {
		case !sawExit:
			sum.effects[i] = paramUses // never returns normally
		case st&stEscaped != 0, st&stLive != 0 && released:
			sum.effects[i] = paramEscapes
		case released:
			sum.effects[i] = paramReleases
		default:
			sum.effects[i] = paramUses
		}
	}
	return sum
}

// flattenParams returns one entry per parameter position; unnamed
// parameters yield nil.
func flattenParams(ftype *ast.FuncType) []*ast.Ident {
	var flat []*ast.Ident
	if ftype.Params == nil {
		return flat
	}
	for _, field := range ftype.Params.List {
		if len(field.Names) == 0 {
			flat = append(flat, nil)
			continue
		}
		flat = append(flat, field.Names...)
	}
	return flat
}

// bindings extracts id := value pairs from assignments and var specs.
func bindings(n ast.Node) (names []*ast.Ident, values []ast.Expr) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return nil, nil
		}
		for i, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				names = append(names, id)
				values = append(values, n.Rhs[i])
			}
		}
	case *ast.ValueSpec:
		if len(n.Names) != len(n.Values) {
			return nil, nil
		}
		return n.Names, n.Values
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					ns, exprs := bindings(vs)
					names = append(names, ns...)
					values = append(values, exprs...)
				}
			}
		}
	}
	return names, values
}
