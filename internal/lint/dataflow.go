package lint

import (
	"go/ast"
	"go/types"
)

// dataflow.go is the generic engine the path-sensitive checks run on top
// of the CFG: a forward union-merge (may) analysis in the style of
// reaching definitions. Facts are per types.Object bitmask state sets,
// merged by union, so any monotone pointwise transfer converges.

// flowState is a small set of per-object abstract states (check-specific
// bit meanings). The zero value means "no information yet" and is distinct
// from "mapped with zero bits" only in that absent keys are untracked.
type flowState uint16

// flowFact is the dataflow fact at one program point: abstract state per
// tracked object.
type flowFact map[types.Object]flowState

func (f flowFact) clone() flowFact {
	out := make(flowFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// mergeInto unions src into dst and reports whether dst changed.
func (dst flowFact) mergeInto(src flowFact) bool {
	changed := false
	for k, v := range src {
		if old, ok := dst[k]; !ok || old|v != old {
			dst[k] = old | v
			changed = true
		}
	}
	return changed
}

// transferFunc applies one node's effect to fact in place. It must be
// monotone per object state bit (union-distributive) for the fixpoint to
// converge; replacing a state set wholesale (e.g. release: Live→Released)
// is fine because the replacement is a pointwise function of the input
// bits.
type transferFunc func(n ast.Node, fact flowFact)

// forwardFlow runs the worklist algorithm and returns the fixpoint
// entry fact of every reachable block. Reporting passes re-apply the
// transfer over a block's nodes starting from its (stable) entry fact, so
// diagnostics fire exactly once per site.
func forwardFlow(c *CFG, entry flowFact, transfer transferFunc) map[*Block]flowFact {
	in := map[*Block]flowFact{c.Entry: entry.clone()}
	work := []*Block{c.Entry}
	queued := map[*Block]bool{c.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		fact := in[blk].clone()
		for _, n := range blk.Nodes {
			transfer(n, fact)
		}
		for _, succ := range blk.Succs {
			dst, ok := in[succ]
			if !ok {
				dst = make(flowFact)
				in[succ] = dst
			}
			if dst.mergeInto(fact) || !ok {
				if !queued[succ] {
					queued[succ] = true
					work = append(work, succ)
				}
			}
		}
	}
	return in
}

// inspectShallow walks n without descending into function literals: a
// literal's body executes under its own CFG, not at this program point.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}
