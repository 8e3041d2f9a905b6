package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// typestate.go is the engine behind buf-flow, obs-span-end and
// conn-deadline: a path-sensitive per-object state machine run over the
// CFG (dataflow.go), with call-graph summaries for values handed to module
// callees. What it tracks comes from a resource description
// (resources.go).
//
// An owned resource (workspace buffers, spans) carries an obligation. A
// variable bound from an acquiring call moves
//
//	Live → Released        (a release call, or a callee whose summary
//	                        releases that parameter on every normal exit)
//	Live → DeferReleased   (the same under defer)
//	Live → Escaped         (returned, stored, captured, sent, handed to a
//	                        callee that may keep it — ownership left)
//
// and four state/event pairs are findings: a use in Released (use after
// release), a release in Released or DeferReleased (double release), an
// acquisition into a variable still Live (the previous value leaks), and
// Live on a normal exit (leak: reported at the early return, or at the
// acquisition when the function falls off its end or loops back). Paths
// ending in panic/os.Exit are exempt, and an acquisition whose result is
// dropped on the spot is reported outright. Parameters of the tracked type
// start Live with no exit obligation: the caller owns them.
//
// A resource with no acquiring call (net.Conn) has no obligation: each
// parameter and each new binding of a tracked-type variable starts in the
// description's entry state, and its steps test and clear state bits.
//
// Unresolved callees, and callees that may (but need not) release, take
// the obligation with them: the analysis fails toward silence, never
// toward a false report.

// resource describes one tracked kind of value to the engine.
type resource struct {
	noun, ended string // the words of an owned resource's findings
	// param reports the parameter types tracked from function entry; for
	// an owned resource it also selects what callee summaries classify.
	param func(types.Type) bool
	entry flowState // a parameter's state at entry
	// acquire matches the calls whose bound result must be released; nil
	// for a resource with no obligation.
	acquire func(p *Package, call *ast.CallExpr) bool
	// release returns the operands a call releases.
	release func(p *Package, call *ast.CallExpr) []ast.Expr
	// steps returns the operand a call tests and the step it takes.
	steps func(p *Package, call *ast.CallExpr) (ast.Expr, step)
}

// A step is one tested call on a tracked operand: a finding (msg,
// formatted with the variable name) when the incoming state has a bad
// bit, after which the clear bits are dropped.
type step struct {
	bad, clear flowState
	msg        string
}

const (
	stLive flowState = 1 << iota
	stDeferReleased
	stReleased
	stEscaped
)

func (res *resource) owned() bool { return res.acquire != nil }

// run is the Check.Run of a resource: every function declaration and every
// function literal is its own analysis unit with its own CFG.
func (res *resource) run(prog *Program, p *Package, r *Reporter) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			res.analyze(prog, p, r, fd.Type, fd.Body)
			forEachFuncLit(fd.Body, func(lit *ast.FuncLit) {
				res.analyze(prog, p, r, lit.Type, lit.Body)
			})
		}
	}
}

// forEachFuncLit visits every function literal under root, including
// literals nested inside other literals.
func forEachFuncLit(root ast.Node, fn func(*ast.FuncLit)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			fn(lit)
		}
		return true
	})
}

// typestate is the per-function context shared by the transfer function
// and the reporting pass.
type typestate struct {
	res      *resource
	prog     *Program
	p        *Package
	acquired map[types.Object]*ast.Ident // bound from an acquisition: owed on exit
	tracked  map[types.Object]bool       // acquired + tracked-type parameters
	reports  map[string]bool             // dedupe across exit paths
}

func newTypestate(res *resource, prog *Program, p *Package) *typestate {
	return &typestate{
		res:      res,
		prog:     prog,
		p:        p,
		acquired: make(map[types.Object]*ast.Ident),
		tracked:  make(map[types.Object]bool),
		reports:  make(map[string]bool),
	}
}

func (res *resource) analyze(prog *Program, p *Package, r *Reporter, ftype *ast.FuncType, body *ast.BlockStmt) {
	a := newTypestate(res, prog, p)
	entry := make(flowFact)
	for _, id := range flattenParams(ftype) {
		if obj := p.Info.Defs[id]; obj != nil && res.param(obj.Type()) {
			a.tracked[obj] = true
			entry[obj] = res.entry
		}
	}
	if res.owned() {
		// Acquisitions bound to local identifiers, and those dropped on the
		// spot; nested literals are their own units.
		inspectShallow(body, func(n ast.Node) bool {
			if s, ok := n.(*ast.ExprStmt); ok {
				if call, ok := s.X.(*ast.CallExpr); ok && res.acquire(p, call) {
					r.Report(s.Pos(), "%s is acquired and immediately dropped; bind it so it can be %s", res.noun, res.ended)
				}
			}
			names, values := bindings(n)
			for i, id := range names {
				if call, ok := values[i].(*ast.CallExpr); ok && res.acquire(p, call) {
					if obj := a.defOrUse(id); obj != nil {
						a.acquired[obj] = id
						a.tracked[obj] = true
					}
				}
			}
			return true
		})
		if len(a.tracked) == 0 {
			return
		}
	}
	a.walk(body, entry, r, func(blk *Block, fact flowFact) {
		for obj, id := range a.acquired {
			if fact[obj]&stLive == 0 {
				continue
			}
			if blk.Return != nil {
				a.reportOnce(r, blk.Return.Pos(), "%s %q may leak: it is never %s on this return path", res.noun, id.Name, res.ended)
			} else {
				a.reportOnce(r, id.Pos(), "%s %q is acquired but never %s on some path through this function", res.noun, id.Name, res.ended)
			}
		}
	})
}

// walk solves the dataflow over body from entry, then re-runs every
// reachable block once from its fixpoint fact — reporting through r when
// it is set — and hands each normal exit's fact to exit.
func (a *typestate) walk(body *ast.BlockStmt, entry flowFact, r *Reporter, exit func(*Block, flowFact)) {
	cfg := FuncCFG(body)
	in := forwardFlow(cfg, entry, func(n ast.Node, fact flowFact) {
		a.transfer(n, fact, nil)
	})
	for _, blk := range cfg.Blocks {
		fact, ok := in[blk]
		if !ok || blk == cfg.Exit {
			continue // unreachable
		}
		fact = fact.clone()
		for _, n := range blk.Nodes {
			a.transfer(n, fact, r)
		}
		if blockExits(blk, cfg) && !blk.Terminates {
			exit(blk, fact)
		}
	}
}

// blockExits reports whether blk flows into the synthetic exit block.
func blockExits(blk *Block, cfg *CFG) bool {
	for _, s := range blk.Succs {
		if s == cfg.Exit {
			return true
		}
	}
	return false
}

func (a *typestate) reportOnce(r *Reporter, pos token.Pos, format string, args ...any) {
	if r == nil {
		return
	}
	key := fmt.Sprintf("%d:%s", pos, fmt.Sprintf(format, args...))
	if a.reports[key] {
		return
	}
	a.reports[key] = true
	r.Report(pos, format, args...)
}

func (a *typestate) defOrUse(id *ast.Ident) types.Object {
	if obj := a.p.Info.Defs[id]; obj != nil {
		return obj
	}
	return a.p.Info.Uses[id]
}

// identObj resolves e to the object of a plain identifier use, or nil.
func (a *typestate) identObj(e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return a.p.Info.Uses[id]
	}
	return nil
}

// trackedObj is identObj restricted to tracked variables.
func (a *typestate) trackedObj(e ast.Expr) types.Object {
	if obj := a.identObj(e); obj != nil && a.tracked[obj] {
		return obj
	}
	return nil
}

// ---- transfer function ----

// transfer applies one CFG node's effect to fact. With r == nil it only
// computes states (fixpoint phase); with r set it also reports.
func (a *typestate) transfer(n ast.Node, fact flowFact, r *Reporter) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		a.transferAssign(s, fact, r)
	case *ast.DeclStmt:
		names, values := bindings(s)
		for i, id := range names {
			a.bind(id, values[i], fact, r)
		}
	case *ast.DeferStmt:
		a.transferDefer(s, fact, r)
	case *ast.GoStmt:
		// The spawned goroutine owns whatever it receives or captures.
		for _, arg := range s.Call.Args {
			a.evalExpr(arg, fact, r, true)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			a.captureObjs(lit, fact, r, true)
		} else {
			a.evalExpr(s.Call.Fun, fact, r, false)
		}
	case *ast.SendStmt:
		a.evalExpr(s.Chan, fact, r, false)
		a.evalExpr(s.Value, fact, r, true)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			a.evalExpr(res, fact, r, true)
		}
	case *ast.ExprStmt:
		a.evalExpr(s.X, fact, r, false)
	case *ast.IncDecStmt:
		a.evalExpr(s.X, fact, r, false)
	case *ast.RangeStmt:
		// Only the range operand evaluates at the loop head; the body is in
		// its own blocks.
		a.evalExpr(s.X, fact, r, false)
	case ast.Expr:
		a.evalExpr(s, fact, r, false)
	}
}

// transferAssign handles acquisitions, the swap idiom, escapes through
// assignment and rebinding.
func (a *typestate) transferAssign(s *ast.AssignStmt, fact flowFact, r *Reporter) {
	if a.applyPermutation(s, fact) {
		return
	}
	if len(s.Lhs) != len(s.Rhs) {
		// Multi-value unpack: the RHS call is evaluated normally, then each
		// LHS is rebound.
		for _, rhs := range s.Rhs {
			a.evalExpr(rhs, fact, r, true)
		}
		for _, lhs := range s.Lhs {
			a.killLHS(lhs, fact, r)
		}
		return
	}
	for i := range s.Lhs {
		if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
			a.bind(id, s.Rhs[i], fact, r)
			continue
		}
		a.evalExpr(s.Rhs[i], fact, r, true)
		a.killLHS(s.Lhs[i], fact, r)
	}
}

// bind processes one `id = value` binding: an acquisition makes id Live,
// anything else is evaluated (as a possible escape) and rebinds id.
func (a *typestate) bind(id *ast.Ident, value ast.Expr, fact flowFact, r *Reporter) {
	call, ok := value.(*ast.CallExpr)
	if !ok || !a.res.owned() || !a.res.acquire(a.p, call) {
		a.evalExpr(value, fact, r, true)
		a.killLHS(id, fact, r)
		return
	}
	// The acquisition call itself: receiver and arguments are plain reads.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		a.evalExpr(sel.X, fact, r, false)
	}
	for _, arg := range call.Args {
		a.evalExpr(arg, fact, r, false)
	}
	obj := a.defOrUse(id)
	if obj == nil || a.acquired[obj] == nil {
		return
	}
	if fact[obj]&stLive != 0 {
		a.reportOnce(r, id.Pos(), "%s %q is reacquired while a previously acquired one is still live (leaked on a loop or branch path)", a.res.noun, id.Name)
	}
	fact[obj] = stLive
}

// killLHS rebinds an identifier overwritten by a non-acquisition value —
// an owned variable's state is forgotten, an unowned tracked-type one
// starts over in the entry state — and evaluates compound targets as
// reads.
func (a *typestate) killLHS(lhs ast.Expr, fact flowFact, r *Reporter) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		a.evalExpr(lhs, fact, r, false)
		return
	}
	obj := a.defOrUse(id)
	switch {
	case id.Name == "_" || obj == nil:
	case !a.res.owned() && a.res.param(obj.Type()):
		fact[obj] = a.res.entry
	case a.tracked[obj]:
		delete(fact, obj)
	}
}

// applyPermutation recognizes `a, b = b, a`-style swaps over tracked
// variables (the ping-pong idiom in propagation loops) and moves states
// without treating either side as an escape.
func (a *typestate) applyPermutation(s *ast.AssignStmt, fact flowFact) bool {
	if s.Tok != token.ASSIGN || len(s.Lhs) < 2 || len(s.Lhs) != len(s.Rhs) {
		return false
	}
	lhsObjs := make([]types.Object, len(s.Lhs))
	rhsObjs := make([]types.Object, len(s.Rhs))
	anyTracked := false
	seen := make(map[types.Object]int)
	for i := range s.Lhs {
		lo := a.identObj(s.Lhs[i])
		ro := a.identObj(s.Rhs[i])
		if lo == nil || ro == nil {
			return false
		}
		lhsObjs[i], rhsObjs[i] = lo, ro
		seen[lo]++
		seen[ro]--
		if a.tracked[lo] || a.tracked[ro] {
			anyTracked = true
		}
	}
	if !anyTracked {
		return false
	}
	for _, d := range seen {
		if d != 0 {
			return false // not a permutation of the same variables
		}
	}
	next := make(map[types.Object]flowState, len(lhsObjs))
	for i := range lhsObjs {
		next[lhsObjs[i]] = fact[rhsObjs[i]]
	}
	for obj, st := range next {
		fact[obj] = st
	}
	return true
}

// transferDefer handles deferred calls: direct (defer PutBuf(b), defer
// sp.End()) and summarized (defer helper(b)) releases go through
// applyCall; releases inside a deferred closure count as deferred
// releases, and the closure's other captures are exit-time reads
// (unchecked).
func (a *typestate) transferDefer(s *ast.DeferStmt, fact flowFact, r *Reporter) {
	lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit)
	if !ok {
		a.applyCall(s.Call, fact, r, true)
		return
	}
	if a.res.release == nil {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			for _, x := range a.res.release(a.p, c) {
				if obj := a.trackedObj(x); obj != nil {
					a.release(obj, fact, r, s.Pos(), true)
				}
			}
		}
		return true
	})
}

func (a *typestate) release(obj types.Object, fact flowFact, r *Reporter, pos token.Pos, deferred bool) {
	if fact[obj]&(stReleased|stDeferReleased) != 0 {
		a.reportOnce(r, pos, "%s %q may be %s twice (a release is already pending or done on some path)", a.res.noun, obj.Name(), a.res.ended)
	}
	fact[obj] = stReleased
	if deferred {
		fact[obj] = stDeferReleased
	}
}

// use checks a read of a tracked owned variable.
func (a *typestate) use(obj types.Object, fact flowFact, r *Reporter, pos token.Pos) {
	if a.res.owned() && fact[obj]&stReleased != 0 {
		a.reportOnce(r, pos, "use of %s %q after it was %s on some path", a.res.noun, obj.Name(), a.res.ended)
	}
}

// ---- expression evaluation ----

// evalExpr processes one expression. escaping reports whether a whole
// identifier at this exact position transfers ownership out of the
// function (return operand, RHS of an assignment, composite element,
// channel send, goroutine argument).
func (a *typestate) evalExpr(e ast.Expr, fact flowFact, r *Reporter, escaping bool) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		obj := a.p.Info.Uses[e]
		if obj == nil || !a.tracked[obj] {
			return
		}
		a.use(obj, fact, r, e.Pos())
		if escaping && a.res.owned() {
			fact[obj] = stEscaped
		}
	case *ast.ParenExpr:
		a.evalExpr(e.X, fact, r, escaping)
	case *ast.UnaryExpr:
		// &b hands out an alias; other unary ops read.
		a.evalExpr(e.X, fact, r, escaping || e.Op == token.AND)
	case *ast.StarExpr:
		a.evalExpr(e.X, fact, r, false)
	case *ast.SelectorExpr:
		a.evalExpr(e.X, fact, r, false) // b.Data, b.Rows: reads
	case *ast.IndexExpr:
		a.evalExpr(e.X, fact, r, false)
		a.evalExpr(e.Index, fact, r, false)
	case *ast.IndexListExpr:
		a.evalExpr(e.X, fact, r, false)
		for _, idx := range e.Indices {
			a.evalExpr(idx, fact, r, false)
		}
	case *ast.SliceExpr:
		a.evalExpr(e.X, fact, r, false)
		a.evalExpr(e.Low, fact, r, false)
		a.evalExpr(e.High, fact, r, false)
		a.evalExpr(e.Max, fact, r, false)
	case *ast.BinaryExpr:
		a.evalExpr(e.X, fact, r, false)
		a.evalExpr(e.Y, fact, r, false)
	case *ast.TypeAssertExpr:
		a.evalExpr(e.X, fact, r, false)
	case *ast.KeyValueExpr:
		a.evalExpr(e.Key, fact, r, false)
		a.evalExpr(e.Value, fact, r, escaping)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			a.evalExpr(elt, fact, r, true)
		}
	case *ast.FuncLit:
		// A literal used as a value may run later, anywhere: captured
		// tracked values escape.
		a.captureObjs(e, fact, r, true)
	case *ast.CallExpr:
		a.applyCall(e, fact, r, false)
	}
}

// captureObjs scans a function literal's body for captured tracked
// objects. escape=true transfers ownership (go statements, stored
// closures); escape=false only use-checks (synchronous par.Range tasks).
func (a *typestate) captureObjs(lit *ast.FuncLit, fact flowFact, r *Reporter, escape bool) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := a.p.Info.Uses[id]; obj != nil && a.tracked[obj] {
				a.use(obj, fact, r, id.Pos())
				if escape && a.res.owned() {
					fact[obj] = stEscaped
				}
			}
		}
		return true
	})
}

// applyCall evaluates a call: the description's steps and releases,
// par.Range task capture, and summarized module callees. deferred marks
// releases as pending-at-exit instead of done.
func (a *typestate) applyCall(call *ast.CallExpr, fact flowFact, r *Reporter, deferred bool) {
	if a.res.steps != nil {
		if x, st := a.res.steps(a.p, call); x != nil {
			if obj := a.identObj(x); obj != nil {
				if fact[obj]&st.bad != 0 {
					a.reportOnce(r, call.Pos(), st.msg, obj.Name())
				}
				fact[obj] &^= st.clear
			}
		}
	}
	var released []ast.Expr
	if a.res.release != nil {
		released = a.res.release(a.p, call)
	}
	// eval reads x, or releases it when it is a released tracked operand.
	eval := func(x ast.Expr) {
		for _, rx := range released {
			if rx == x {
				if obj := a.trackedObj(x); obj != nil {
					a.release(obj, fact, r, x.Pos(), deferred)
					return
				}
			}
		}
		a.evalExpr(x, fact, r, false)
	}
	// par.Range runs its task closure to completion before returning, so a
	// captured value is a synchronous use, not a handoff.
	if fn := a.p.calleeFunc(call); len(call.Args) > 0 && isFunc(fn, "internal/par", "Range") {
		for _, arg := range call.Args[:len(call.Args)-1] {
			a.evalExpr(arg, fact, r, false)
		}
		if lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit); ok {
			a.captureObjs(lit, fact, r, false)
		} else {
			a.evalExpr(call.Args[len(call.Args)-1], fact, r, true)
		}
		return
	}
	// The function expression itself is a read (method receivers like
	// b.Rows(), func values) unless the call releases its receiver.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		eval(fun.X)
	case *ast.Ident:
	case *ast.FuncLit:
		// Immediately invoked literal: runs here, but has its own CFG;
		// conservatively, captures escape this function's obligation.
		a.captureObjs(fun, fact, r, true)
	default:
		a.evalExpr(fun, fact, r, false)
	}
	// Each whole-identifier tracked argument gets the callee's summarized
	// effect; an unknown callee takes the obligation, silently.
	effects := a.calleeEffects(call)
	for i, arg := range call.Args {
		obj := a.trackedObj(arg)
		if obj == nil || len(released) > 0 {
			eval(arg)
			continue
		}
		effect := paramEscapes
		if i < len(effects) {
			effect = effects[i]
		}
		a.use(obj, fact, r, arg.Pos())
		switch effect {
		case paramReleases:
			a.release(obj, fact, r, arg.Pos(), deferred)
		case paramEscapes:
			if a.res.owned() {
				fact[obj] = stEscaped
			}
		}
	}
}
