package graph

import (
	"fmt"
	"math"

	"scalegnn/internal/par"
	"scalegnn/internal/tensor"
)

// Normalization selects how a graph's adjacency matrix is normalized before
// being used as a propagation operator. These are the standard choices from
// the GNN literature; Symmetric with self-loops is the GCN operator
// Â = D̃^{-1/2} Ã D̃^{-1/2}.
type Normalization int

const (
	// NormNone uses raw edge weights.
	NormNone Normalization = iota
	// NormSymmetric uses D^{-1/2} A D^{-1/2}.
	NormSymmetric
	// NormRandomWalk uses D^{-1} A (row-stochastic; the PPR operator).
	NormRandomWalk
	// NormColumn uses A D^{-1} (column-stochastic; PageRank convention).
	NormColumn
)

// minChunkSparse is the minimum nodes per worker for sparse propagation,
// passed to the shared partitioner in internal/par. Sparse rows are cheaper
// than dense ones, so the chunk floor is higher than the dense kernels'.
const minChunkSparse = 256

func (n Normalization) String() string {
	switch n {
	case NormNone:
		return "none"
	case NormSymmetric:
		return "sym"
	case NormRandomWalk:
		return "rw"
	case NormColumn:
		return "col"
	default:
		return fmt.Sprintf("Normalization(%d)", int(n))
	}
}

// OperatorOf is a sparse propagation operator P derived from a graph: the
// (optionally self-looped, optionally normalized) adjacency matrix stored in
// CSR form with explicit per-arc coefficients of element type T. Multiplying
// feature matrices by P is the core graph computation of every GNN in this
// library; the float32 instantiation halves the memory traffic of this
// bandwidth-bound phase.
type OperatorOf[T tensor.Elem] struct {
	G      *CSR
	Norm   Normalization
	Coef   []T // per-arc coefficient, parallel to G.Adj
	loopCo []T // per-node self-loop coefficient (nil if none)
}

// Operator is the float64 instantiation — the reference propagation path.
type Operator = OperatorOf[float64]

// NewOperator builds a float64 propagation operator from g.
//
// If addSelfLoops is true, the operator acts as if every node had one extra
// self-loop of weight 1 (the Ã = A + I convention); the loop contribution is
// stored separately so the graph itself is not modified.
func NewOperator(g *CSR, norm Normalization, addSelfLoops bool) *Operator {
	return NewOperatorOf[float64](g, norm, addSelfLoops)
}

// NewOperatorOf builds a propagation operator with coefficients of element
// type T. Degree normalization always happens in float64 and narrows once at
// the end, so a float32 operator's coefficients are the correctly rounded
// float64 values rather than an accumulation of low-precision steps.
func NewOperatorOf[T tensor.Elem](g *CSR, norm Normalization, addSelfLoops bool) *OperatorOf[T] {
	op := &OperatorOf[T]{G: g, Norm: norm, Coef: make([]T, len(g.Adj))}
	deg := make([]float64, g.N)
	for u := 0; u < g.N; u++ {
		deg[u] = g.WeightedDegree(u)
		if addSelfLoops {
			deg[u]++
		}
	}
	if addSelfLoops {
		op.loopCo = make([]T, g.N)
	}
	invSqrt := func(d float64) float64 {
		if d == 0 {
			return 0
		}
		return 1 / math.Sqrt(d)
	}
	inv := func(d float64) float64 {
		if d == 0 {
			return 0
		}
		return 1 / d
	}
	for u := 0; u < g.N; u++ {
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		for k := lo; k < hi; k++ {
			v := int(g.Adj[k])
			w := g.EdgeWeight(int(k))
			switch norm {
			case NormNone:
				op.Coef[k] = T(w)
			case NormSymmetric:
				op.Coef[k] = T(w * invSqrt(deg[u]) * invSqrt(deg[v]))
			case NormRandomWalk:
				op.Coef[k] = T(w * inv(deg[u]))
			case NormColumn:
				op.Coef[k] = T(w * inv(deg[v]))
			}
		}
		if addSelfLoops {
			switch norm {
			case NormNone:
				op.loopCo[u] = 1
			case NormSymmetric:
				op.loopCo[u] = T(inv(deg[u])) // invSqrt(d)*invSqrt(d)
			case NormRandomWalk, NormColumn:
				op.loopCo[u] = T(inv(deg[u]))
			}
		}
	}
	return op
}

// ApplyHook intercepts ApplyInto on every operator derived from a graph it
// is attached to (see CSR.SetApplyHook). The distributed runtime installs
// one to partition the SpMM across processes: the hook computes its shard's
// rows via ApplyRowsInto and fills the rest from peer exchanges, so models
// whose propagation routes through ApplyInto distribute with no model-code
// changes. The two methods cover the element-type tiers; interfaces cannot
// carry generic methods, so dispatch is by concrete instantiation.
//
// A hook must fully overwrite dst (ApplyInto's contract) and must not call
// ApplyInto on an operator of the same graph (ApplyRowsInto is the
// re-entrancy-safe primitive). Hooks have no error return: a hook that
// cannot complete the exchange should panic with a typed error for the
// caller that installed it to recover.
type ApplyHook interface {
	Apply64(op *Operator, x, dst *tensor.Mat[float64])
	Apply32(op *OperatorOf[float32], x, dst *tensor.Mat[float32])
}

// Apply computes P*X for a dense feature matrix X (rows = nodes), i.e. one
// round of message passing / graph propagation, parallelized over
// destination nodes. The result is a new matrix.
func (op *OperatorOf[T]) Apply(x *tensor.Mat[T]) *tensor.Mat[T] {
	if x.Rows != op.G.N {
		panic(fmt.Sprintf("graph: Operator.Apply rows %d != n %d", x.Rows, op.G.N))
	}
	out := tensor.NewOf[T](x.Rows, x.Cols)
	op.ApplyInto(x, out)
	return out
}

// ApplyInto computes P*X into dst — the CSR×dense SpMM kernel. dst must
// have X's shape and must not share any backing memory with X (rows of X
// are read while rows of dst are written, so even partially overlapping
// FromSlice views would corrupt the result). dst is overwritten.
//
// Work is row-chunked across goroutines via internal/par; each destination
// row accumulates its arcs in CSR order through the tier's row kernel (see
// rowKernelOf). Columns are independent and every term is a rounded product
// followed by a rounded add, so the float64 path is bitwise-stable whether
// the vector kernels are on or not.
func (op *OperatorOf[T]) ApplyInto(x, dst *tensor.Mat[T]) {
	if x.Rows != op.G.N {
		panic(fmt.Sprintf("graph: ApplyInto rows %d != n %d", x.Rows, op.G.N))
	}
	if dst.Rows != x.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("graph: ApplyInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, x.Cols))
	}
	if tensor.Overlaps(x.Data, dst.Data) {
		panic("graph: ApplyInto dst must not overlap x")
	}
	if h := op.G.applyHook; h != nil {
		switch o := any(op).(type) {
		case *Operator:
			h.Apply64(o, any(x).(*tensor.Mat[float64]), any(dst).(*tensor.Mat[float64]))
			return
		case *OperatorOf[float32]:
			h.Apply32(o, any(x).(*tensor.Mat[float32]), any(dst).(*tensor.Mat[float32]))
			return
		}
	}
	accum := rowKernelOf[T]()
	par.Range(op.G.N, minChunkSparse, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			applyRow(op, u, x, dst, accum)
		}
	})
}

// rowKernel adds Σ_k coef[k]·(row adj[k] of x) into orow in increasing k,
// skipping zero coefficients — the arcs of one destination row. x is the
// row-major data of an nrows × stride matrix.
type rowKernel[T tensor.Elem] func(coef []T, adj []int32, x []T, nrows, stride int, orow []T)

// rowKernelOf picks the row kernel of tier T, once per ApplyInto or
// ApplyRowsInto call. float64 is tensor.F64AccumRows, which holds a row's
// partial sums in registers across all its arcs when the vector kernels are
// on and is bitwise equal to the scalar loop either way; float32 does one
// tensor.F32Axpy per arc.
func rowKernelOf[T tensor.Elem]() rowKernel[T] {
	var k any
	switch any(*new(T)).(type) {
	case float64:
		k = rowKernel[float64](tensor.F64AccumRows)
	case float32:
		k = rowKernel[float32](accumRowsF32)
	}
	return k.(rowKernel[T])
}

// accumRowsF32 is the float32 row kernel: one (vector) axpy per arc.
func accumRowsF32(coef []float32, adj []int32, x []float32, _, stride int, orow []float32) {
	for i, c := range coef {
		if c != 0 {
			r := int(adj[i]) * stride
			tensor.F32Axpy(c, x[r:r+stride], orow)
		}
	}
}

// applyRow computes one destination row of P*X into dst.Row(u) — the shared
// per-row SpMM body of ApplyInto and ApplyRowsInto. A row's value depends
// only on u's arcs (accumulated in CSR order by accum) and the referenced
// rows of x, never on which other rows are computed alongside it, so any
// subset of rows is bitwise identical to the same rows of a full ApplyInto.
func applyRow[T tensor.Elem](op *OperatorOf[T], u int, x, dst *tensor.Mat[T], accum rowKernel[T]) {
	orow := dst.Row(u)
	if op.loopCo != nil && op.loopCo[u] != 0 {
		c := op.loopCo[u]
		xrow := x.Row(u)
		for j, xv := range xrow {
			orow[j] = c * xv
		}
	} else {
		for j := range orow {
			orow[j] = 0
		}
	}
	s, e := op.G.Offsets[u], op.G.Offsets[u+1]
	accum(op.Coef[s:e], op.G.Adj[s:e], x.Data, x.Rows, x.Cols, orow)
}

// ApplyRowsInto computes only the listed destination rows of P*X into dst,
// leaving every other row of dst untouched. It is the partitioned form of
// ApplyInto used by the distributed runtime: each shard computes its owned
// rows and receives the rest over the wire. The per-row kernel is shared
// with ApplyInto, so on the float64 tier the computed rows are bitwise
// identical to the same rows of a full local ApplyInto. x must still span
// the whole graph (a row may aggregate any neighbor). dst must have X's
// shape and must not share backing memory with X.
func (op *OperatorOf[T]) ApplyRowsInto(x, dst *tensor.Mat[T], rows []int32) {
	if x.Rows != op.G.N {
		panic(fmt.Sprintf("graph: ApplyRowsInto rows %d != n %d", x.Rows, op.G.N))
	}
	if dst.Rows != x.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("graph: ApplyRowsInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, x.Cols))
	}
	if tensor.Overlaps(x.Data, dst.Data) {
		panic("graph: ApplyRowsInto dst must not overlap x")
	}
	accum := rowKernelOf[T]()
	par.Range(len(rows), minChunkSparse, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			applyRow(op, int(rows[i]), x, dst, accum)
		}
	})
}

// ApplyVec computes P*x for a vector x of length N.
func (op *OperatorOf[T]) ApplyVec(x []T) []T {
	g := op.G
	if len(x) != g.N {
		panic(fmt.Sprintf("graph: Operator.ApplyVec len %d != n %d", len(x), g.N))
	}
	out := make([]T, g.N)
	op.ApplyVecInto(x, out)
	return out
}

// ApplyVecInto computes P*x into dst (length N), overwriting it — the
// single-column SpMM used by PPR power iteration and diffusion. dst must
// not alias x.
func (op *OperatorOf[T]) ApplyVecInto(x, dst []T) {
	g := op.G
	if len(x) != g.N {
		panic(fmt.Sprintf("graph: Operator.ApplyVecInto len %d != n %d", len(x), g.N))
	}
	if len(dst) != g.N {
		panic(fmt.Sprintf("graph: Operator.ApplyVecInto dst len %d != n %d", len(dst), g.N))
	}
	if tensor.Overlaps(x, dst) {
		panic("graph: ApplyVecInto dst must not overlap x")
	}
	par.Range(g.N, minChunkSparse, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			var s T
			if op.loopCo != nil {
				s = op.loopCo[u] * x[u]
			}
			a, b := g.Offsets[u], g.Offsets[u+1]
			for k := a; k < b; k++ {
				s += op.Coef[k] * x[g.Adj[k]]
			}
			dst[u] = s
		}
	})
}

// PowerApply computes P^k * X by repeated application.
func (op *OperatorOf[T]) PowerApply(x *tensor.Mat[T], k int) *tensor.Mat[T] {
	cur := x.Clone()
	buf := tensor.NewOf[T](x.Rows, x.Cols)
	for i := 0; i < k; i++ {
		op.ApplyInto(cur, buf)
		cur, buf = buf, cur
	}
	return cur
}

// Dense materializes the operator as a dense N x N matrix. Intended for
// tests and tiny graphs only — every production path goes through the
// SpMM ApplyInto.
func (op *OperatorOf[T]) Dense() *tensor.Mat[T] {
	g := op.G
	m := tensor.NewOf[T](g.N, g.N)
	for u := 0; u < g.N; u++ {
		if op.loopCo != nil {
			m.Set(u, u, m.At(u, u)+op.loopCo[u])
		}
		a, b := g.Offsets[u], g.Offsets[u+1]
		for k := a; k < b; k++ {
			v := int(g.Adj[k])
			m.Set(u, v, m.At(u, v)+op.Coef[k])
		}
	}
	return m
}
