package lint

import (
	"go/ast"
	"go/token"
)

// cfg.go builds a basic-block control-flow graph over a go/ast function
// body. The graph is the substrate for the dataflow passes in dataflow.go:
// the typestate engine (buf-flow, obs-span-end, conn-deadline) and the
// reaching-definitions style ctx-flow both run over it. The builder stays on the
// stdlib go/ast only — no ssa, no x/tools — matching the loader's
// zero-dependency contract.
//
// Blocks hold "simple" nodes in execution order: plain statements
// (assignments, expression statements, declarations, defer/go, sends,
// inc/dec) plus the condition/tag expressions of the control statements
// that were decomposed into edges. Compound statements (if/for/switch/
// select) never appear as nodes themselves, so a transfer function can
// walk each node's subtree without re-entering control flow. Function
// literals are *not* descended into — each literal gets its own CFG via
// funcCFG.

// Block is one basic block.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Return is the explicit return ending this block, if any.
	Return *ast.ReturnStmt
	// Terminates marks a block ending in panic/os.Exit/log.Fatal-style
	// calls: control reaches Exit only by unwinding, so exit-obligation
	// checks (e.g. buffer leaks) skip it.
	Terminates bool
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block // synthetic; holds no nodes
	Blocks []*Block
}

// funcCFG builds the CFG for a function body. The body may belong to an
// *ast.FuncDecl or an *ast.FuncLit; literals nested inside are treated as
// opaque values (build their CFGs separately).
func funcCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = &Block{Index: -1}
	b.cur = b.cfg.Entry
	b.stmt(body)
	// Implicit return at the end of the body.
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit)
	}
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

type loopFrame struct {
	label     string
	brk, cont *Block
}

type cfgBuilder struct {
	cfg   *CFG
	cur   *Block // nil after a terminator until the next block starts
	loops []loopFrame
	// pendingLabel is the label attached to the next loop/switch statement.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// use appends a node to the current block, opening a fresh (unreachable)
// block if control already left.
func (b *cfgBuilder) use(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// startBlock begins a new block with an edge from the current one.
func (b *cfgBuilder) startBlock() *Block {
	blk := b.newBlock()
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

func (b *cfgBuilder) findLoop(label string) *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if label == "" || b.loops[i].label == label {
			return &b.loops[i]
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		if s.Init != nil {
			b.use(s.Init)
		}
		b.use(s.Cond)
		condBlk := b.cur
		thenBlk := b.newBlock()
		b.edge(condBlk, thenBlk)
		b.cur = thenBlk
		b.stmt(s.Body)
		thenEnd := b.cur
		var elseEnd *Block
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		join := b.newBlock()
		if s.Else == nil {
			b.edge(condBlk, join)
		}
		if thenEnd != nil {
			b.edge(thenEnd, join)
		}
		if elseEnd != nil {
			b.edge(elseEnd, join)
		}
		b.cur = join
	case *ast.ForStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		if s.Init != nil {
			b.use(s.Init)
		}
		head := b.startBlock()
		if s.Cond != nil {
			b.use(s.Cond)
		}
		after := b.newBlock()
		post := b.newBlock() // holds s.Post; continue target
		body := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		b.loops = append(b.loops, loopFrame{label: label, brk: after, cont: post})
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, post)
		}
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		b.edge(post, head)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after
	case *ast.RangeStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		head := b.startBlock()
		// The range head both evaluates X and binds key/value; the whole
		// statement is the node so transfers see every identifier.
		head.Nodes = append(head.Nodes, s)
		after := b.newBlock()
		body := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.loops = append(b.loops, loopFrame{label: label, brk: after, cont: head})
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		b.switchStmt(s)
	case *ast.SelectStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		head := b.cur
		if head == nil {
			head = b.newBlock()
			b.cur = head
		}
		after := b.newBlock()
		b.loops = append(b.loops, loopFrame{label: label, brk: after})
		for _, clause := range s.Body.List {
			c := clause.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			if c.Comm != nil {
				b.use(c.Comm)
			}
			for _, st := range c.Body {
				b.stmt(st)
			}
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		if len(s.Body.List) == 0 {
			b.edge(head, after)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after
	case *ast.ReturnStmt:
		b.use(s)
		b.cur.Return = s
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if f := b.findLoop(labelName(s.Label)); f != nil && f.brk != nil {
				if b.cur == nil {
					b.cur = b.newBlock()
				}
				b.edge(b.cur, f.brk)
			}
			b.cur = nil
		case token.CONTINUE:
			if f := b.findLoop(labelName(s.Label)); f != nil && f.cont != nil {
				if b.cur == nil {
					b.cur = b.newBlock()
				}
				b.edge(b.cur, f.cont)
			}
			b.cur = nil
		case token.GOTO:
			// Approximate: a goto abandons structured flow; route to exit so
			// no spurious fallthrough facts survive. The repo style avoids
			// goto, so precision here buys nothing.
			if b.cur != nil {
				b.cur.Terminates = true
				b.edge(b.cur, b.cfg.Exit)
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled structurally by switchStmt via clause ordering.
		}
	case *ast.ExprStmt:
		b.use(s)
		if isTerminatingCall(s.X) {
			b.cur.Terminates = true
			b.edge(b.cur, b.cfg.Exit)
			b.cur = nil
		}
	case nil:
		// Absent optional statement.
	default:
		// AssignStmt, DeclStmt, DeferStmt, GoStmt, IncDecStmt, SendStmt,
		// EmptyStmt: straight-line nodes.
		b.use(s)
	}
}

// switchStmt lowers expression and type switches: head (init+tag) fans out
// to every case clause; clause bodies converge on the join block, and a
// fallthrough chains one clause body into the next.
func (b *cfgBuilder) switchStmt(s ast.Stmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	var init, tag ast.Node
	var clauses []*ast.CaseClause
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			init = s.Init
		}
		if s.Tag != nil {
			tag = s.Tag
		}
		for _, c := range s.Body.List {
			clauses = append(clauses, c.(*ast.CaseClause))
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			init = s.Init
		}
		tag = s.Assign
		for _, c := range s.Body.List {
			clauses = append(clauses, c.(*ast.CaseClause))
		}
	}
	if init != nil {
		b.use(init)
	}
	if tag != nil {
		b.use(tag)
	}
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	after := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, brk: after})
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	for i, c := range clauses {
		if c.List == nil {
			hasDefault = true
		}
		b.edge(head, bodies[i])
		b.cur = bodies[i]
		for _, e := range c.List {
			b.use(e)
		}
		fallsThrough := false
		for _, st := range c.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(st)
		}
		if b.cur != nil {
			if fallsThrough && i+1 < len(clauses) {
				b.edge(b.cur, bodies[i+1])
			} else {
				b.edge(b.cur, after)
			}
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func labelName(l *ast.Ident) string {
	if l == nil {
		return ""
	}
	return l.Name
}

// isTerminatingCall recognizes calls that never return normally: panic,
// os.Exit, runtime.Goexit, log.Fatal*, and the repo's cmd-local fatal
// helpers. Purely syntactic — a CFG has no type info — which is fine for
// its one consumer: skipping exit-obligation reports on dying paths.
func isTerminatingCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic" || fn.Name == "fatal"
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok {
			switch {
			case x.Name == "os" && fn.Sel.Name == "Exit":
				return true
			case x.Name == "runtime" && fn.Sel.Name == "Goexit":
				return true
			case x.Name == "log" && (fn.Sel.Name == "Fatal" || fn.Sel.Name == "Fatalf" || fn.Sel.Name == "Fatalln"):
				return true
			}
		}
	}
	return false
}
