package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// resources.go holds the three descriptions the typestate engine runs.

// bufFlow: pooled workspace buffers (tensor.GetBuf/GetZeroBuf,
// Workspace.Get/GetZero, tensor.NewBuf handles) go back to the pool
// exactly once (Put/PutBuf/ws.Put/Release), on every path, and are not
// read after. A dropped buffer silently reintroduces the per-epoch
// allocations pooling exists to remove; a double-released one corrupts
// the pool for two unrelated callers.
var bufFlow = &resource{
	noun:  "workspace buffer",
	ended: "released",
	param: isBufType,
	entry: stLive,
	acquire: func(p *Package, call *ast.CallExpr) bool {
		return isFunc(p.calleeFunc(call), "internal/tensor", "Get", "GetZero", "GetBuf", "GetZeroBuf", "NewBuf")
	},
	release: func(p *Package, call *ast.CallExpr) []ast.Expr {
		switch fn := p.calleeFunc(call); {
		case isFunc(fn, "internal/tensor", "Put", "PutBuf"):
			return call.Args
		case isFunc(fn, "internal/tensor", "Release"):
			return receiver(call)
		}
		return nil
	},
}

// obsSpanEnd: a tracing span (obs.Start/StartTimed/StartRequest,
// Tracer.Start, Span.Child) is ended exactly once on every path, or
// visibly handed off (returned, stored, sent), and not touched after End.
// A span that is started and dropped never reaches the tracer buffer, so
// the timeline silently loses the section; one ended twice records it
// twice.
var obsSpanEnd = &resource{
	noun:  "span",
	ended: "ended",
	param: isSpanType,
	entry: stLive,
	acquire: func(p *Package, call *ast.CallExpr) bool {
		return isFunc(p.calleeFunc(call), "internal/obs", "Start", "StartTimed", "StartRequest", "Child")
	},
	release: func(p *Package, call *ast.CallExpr) []ast.Expr {
		if isFunc(p.calleeFunc(call), "internal/obs", "End") {
			return receiver(call)
		}
		return nil
	},
}

// connDeadline: in the wire-protocol package, a net.Conn Read/Write is
// preceded on every path by a deadline for that direction. The read
// deadline is the peer-failure detector and the write deadline bounds a
// stalled flush; an unarmed call hangs a shard forever on a dead peer.
// Each binding (a re-dial) starts both directions unarmed again.
var connDeadline = &resource{
	param: connLike,
	entry: readUnarmed | writeUnarmed,
	steps: func(p *Package, call *ast.CallExpr) (ast.Expr, step) {
		fn := p.calleeFunc(call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "net" {
			return nil, step{}
		}
		st, ok := connSteps[fn.Name()]
		if x := receiver(call); ok && x != nil && connLike(p.Info.TypeOf(x[0])) {
			return x[0], st
		}
		return nil, step{}
	},
}

const (
	readUnarmed flowState = 1 << iota
	writeUnarmed
)

var connSteps = map[string]step{
	"Read":             {bad: readUnarmed, msg: "net.Conn Read on %q without SetReadDeadline on this path; an unarmed read blocks forever on a dead peer — the deadline is the failure detector"},
	"Write":            {bad: writeUnarmed, msg: "net.Conn Write on %q without SetWriteDeadline on this path; an unarmed write hangs a shard when the peer stops draining"},
	"SetDeadline":      {clear: readUnarmed | writeUnarmed},
	"SetReadDeadline":  {clear: readUnarmed},
	"SetWriteDeadline": {clear: writeUnarmed},
}

// receiver returns the receiver operand of a method call.
func receiver(call *ast.CallExpr) []ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return []ast.Expr{sel.X}
	}
	return nil
}

// isFunc reports whether fn is one of the named functions or methods of
// package pkg: a standard-library import path, or a module package named
// by its "internal/..." suffix.
func isFunc(fn *types.Func, pkg string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || !pathIs(fn.Pkg().Path(), pkg) {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

func pathIs(path, pkg string) bool {
	return path == pkg || strings.HasPrefix(pkg, "internal/") && strings.HasSuffix(path, "/"+pkg)
}

// namedIn resolves t (through one pointer and aliases) to a named type of
// package pkg, or nil.
func namedIn(t types.Type, pkg string) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !pathIs(named.Obj().Pkg().Path(), pkg) {
		return nil
	}
	return named
}

// isBufType reports whether t is pooled tensor storage: a tensor.Mat
// instantiation (any element type, via the Matrix alias or directly) or a
// tensor.BufOf handle (value or pointer).
func isBufType(t types.Type) bool {
	named := namedIn(t, "internal/tensor")
	if named == nil {
		return false
	}
	switch named.Obj().Name() {
	case "Matrix", "Buf", "Mat", "BufOf":
		return true
	}
	return false
}

// isSpanType reports whether t is obs.Span or *obs.Span.
func isSpanType(t types.Type) bool {
	named := namedIn(t, "internal/obs")
	return named != nil && named.Obj().Name() == "Span"
}

// connLike reports whether t is a net connection: a named type (or
// pointer to one) of package net that carries SetReadDeadline — net.Conn
// itself and the concrete TCPConn/UnixConn/UDPConn family.
func connLike(t types.Type) bool {
	named := namedIn(t, "net")
	if named == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, named.Obj().Pkg(), "SetReadDeadline")
	_, ok := obj.(*types.Func)
	return ok
}
