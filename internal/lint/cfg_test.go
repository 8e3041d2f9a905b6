package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFuncBody type-checks a single-file package and returns the named
// function's body plus the info needed by the dataflow passes.
func parseFuncBody(t *testing.T, src, name string) (*ast.BlockStmt, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfgtest.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	cfg := types.Config{}
	if _, err := cfg.Check("cfgtest", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd.Body, info, fset
		}
	}
	t.Fatalf("no func %s in test source", name)
	return nil, nil, nil
}

// reachesExit reports whether blk has the synthetic exit as a successor.
func reachesExit(c *CFG, blk *Block) bool {
	for _, s := range blk.Succs {
		if s == c.Exit {
			return true
		}
	}
	return false
}

func TestCFGIfElseShape(t *testing.T) {
	body, _, _ := parseFuncBody(t, `package x
func f(c bool) int {
	n := 1
	if c {
		n = 2
	} else {
		n = 3
	}
	return n
}`, "f")
	c := FuncCFG(body)
	// Both arms flow into the merge block that holds the return.
	var retBlk *Block
	for _, b := range c.Blocks {
		if b.Return != nil {
			retBlk = b
		}
	}
	if retBlk == nil {
		t.Fatal("no block records the return statement")
	}
	if len(retBlk.Preds) != 2 {
		t.Errorf("merge block has %d preds, want 2 (then + else)", len(retBlk.Preds))
	}
	if !reachesExit(c, retBlk) {
		t.Error("return block does not flow to exit")
	}
	// The condition expression is a node of the branching block, so
	// transfer functions see it exactly once.
	found := false
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if id, ok := n.(*ast.Ident); ok && id.Name == "c" {
				found = true
			}
		}
	}
	if !found {
		t.Error("if condition not recorded as a CFG node")
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	body, _, _ := parseFuncBody(t, `package x
func f(k int) int {
	t := 0
	for i := 0; i < k; i++ {
		t += i
	}
	return t
}`, "f")
	c := FuncCFG(body)
	// Some block must have a successor with a lower (earlier) index: the
	// back edge from the post block to the loop head.
	back := false
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			if s != c.Exit && s.Index < b.Index {
				back = true
			}
		}
	}
	if !back {
		t.Error("for loop produced no back edge")
	}
	if len(c.Exit.Preds) == 0 {
		t.Error("exit unreachable: loop exit edge missing")
	}
}

func TestCFGTerminatingCall(t *testing.T) {
	body, _, _ := parseFuncBody(t, `package x
func f(c bool) int {
	if c {
		panic("boom")
	}
	return 1
}`, "f")
	c := FuncCFG(body)
	var panicBlk *Block
	for _, b := range c.Blocks {
		if b.Terminates {
			panicBlk = b
		}
	}
	if panicBlk == nil {
		t.Fatal("panic block not marked Terminates")
	}
	// It unwinds straight to exit, never to the return.
	for _, s := range panicBlk.Succs {
		if s != c.Exit {
			t.Errorf("terminating block falls through to block %d", s.Index)
		}
	}
}

// TestForwardFlowUnionMerge pins the may-analysis semantics: facts from
// both arms of a branch union at the merge point.
func TestForwardFlowUnionMerge(t *testing.T) {
	body, _, _ := parseFuncBody(t, `package x
func f(c bool) {
	n := 0
	if c {
		n = 1
	} else {
		n++
	}
	_ = n
}`, "f")
	c := FuncCFG(body)
	probe := types.NewVar(token.NoPos, nil, "probe", types.Typ[types.Int])
	const (
		sawAssign flowState = 1 << iota
		sawIncDec
	)
	transfer := func(n ast.Node, fact flowFact) {
		switch n.(type) {
		case *ast.AssignStmt:
			fact[probe] |= sawAssign
		case *ast.IncDecStmt:
			fact[probe] |= sawIncDec
		}
	}
	in := forwardFlow(c, make(flowFact), transfer)
	var mergeFact flowFact
	for _, b := range c.Blocks {
		if b == c.Exit {
			continue
		}
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
					mergeFact = in[b]
				}
			}
		}
	}
	if mergeFact == nil {
		t.Fatal("merge block (holding _ = n) not found")
	}
	if mergeFact[probe]&sawAssign == 0 || mergeFact[probe]&sawIncDec == 0 {
		t.Errorf("merge entry fact = %b, want union of both branch facts", mergeFact[probe])
	}
}

// TestForwardFlowLoopFixpoint: facts generated in a loop body reach the
// loop head on the back edge.
func TestForwardFlowLoopFixpoint(t *testing.T) {
	body, _, _ := parseFuncBody(t, `package x
func f(k int) {
	for i := 0; i < k; i++ {
		_ = i
	}
}`, "f")
	c := FuncCFG(body)
	probe := types.NewVar(token.NoPos, nil, "probe", types.Typ[types.Int])
	transfer := func(n ast.Node, fact flowFact) {
		if as, ok := n.(*ast.AssignStmt); ok {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
				fact[probe] |= 1
			}
		}
	}
	in := forwardFlow(c, make(flowFact), transfer)
	// The body block itself must (on iterations after the first) carry the
	// fact its own previous iteration generated.
	var bodyFact flowFact
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
					bodyFact = in[b]
				}
			}
		}
	}
	if bodyFact == nil {
		t.Fatal("loop body block not found")
	}
	if bodyFact[probe]&1 == 0 {
		t.Error("loop body entry fact missing its own generated bit: back edge not propagated")
	}
}
