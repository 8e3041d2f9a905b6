package distnet

import (
	"fmt"
	"strings"

	"scalegnn/internal/graph"
	"scalegnn/internal/partition"
	"scalegnn/internal/tensor"
)

// ExchangeError is the panic payload thrown by the propagation hook when a
// round fails terminally (peer timeout, staleness bound exceeded,
// cancellation). graph.ApplyHook has no error return — propagation is deep
// inside model forward/backward passes — so the hook unwinds with a typed
// panic that the process driving training recovers at the Fit boundary and
// converts into a clean fatal error.
type ExchangeError struct{ Err error }

func (e *ExchangeError) Error() string {
	msg := e.Err.Error()
	if strings.HasPrefix(msg, "distnet: ") {
		return msg // RoundError already carries the package prefix
	}
	return "distnet: " + msg
}
func (e *ExchangeError) Unwrap() error { return e.Err }

// Hook partitions every ApplyInto of a graph across the cluster: the local
// shard computes its owned destination rows with ApplyRowsInto and receives
// every other row from the peer that owns it, assembling the full product.
//
// Because the per-row SpMM kernel is shared with the single-process path
// and rows travel as raw IEEE-754 bits, the assembled matrix — and with
// lockstep-replicated dense math, the entire training trajectory — is
// bitwise identical to a single-process run in synchronous mode.
//
// Install with Attach; it covers every model whose propagation routes
// through Operator.ApplyInto.
type Hook struct {
	c     *Cluster
	owned [][]int32 // owned[p]: the rows shard p computes, ascending
	nodes int
}

// NewHook builds the propagation hook for this shard's partition. The
// assignment must have exactly one part per cluster shard.
func NewHook(c *Cluster, a *partition.Assignment) (*Hook, error) {
	if a.K != c.N() {
		return nil, fmt.Errorf("distnet: partition has %d parts for %d shards", a.K, c.N())
	}
	h := &Hook{c: c, owned: make([][]int32, a.K), nodes: len(a.Parts)}
	for u, part := range a.Parts {
		if part < 0 || part >= a.K {
			return nil, fmt.Errorf("distnet: node %d assigned to part %d of %d", u, part, a.K)
		}
		h.owned[part] = append(h.owned[part], int32(u))
	}
	return h, nil
}

// Owned returns the destination rows this shard computes locally.
func (h *Hook) Owned() []int32 { return h.owned[h.c.Shard()] }

// Attach installs the hook on g; detach by attaching nil via g.SetApplyHook.
func (h *Hook) Attach(g *graph.CSR) { g.SetApplyHook(h) }

// Apply64 implements graph.ApplyHook for the float64 reference tier.
func (h *Hook) Apply64(op *graph.Operator, x, dst *tensor.Mat[float64]) {
	hookApply(h, op, x, dst)
}

// Apply32 implements graph.ApplyHook for the float32 speed tier.
func (h *Hook) Apply32(op *graph.OperatorOf[float32], x, dst *tensor.Mat[float32]) {
	hookApply(h, op, x, dst)
}

// hookApply is the shared exchange step: compute owned rows, allgather them
// (every shard's dense stage consumes the full matrix), and fill the rest
// from the received frames. Each peer must send exactly the rows it owns,
// so together they cover dst.
func hookApply[T tensor.Elem](h *Hook, op *graph.OperatorOf[T], x, dst *tensor.Mat[T]) {
	op.ApplyRowsInto(x, dst, h.Owned())
	if h.c.N() == 1 {
		return
	}
	if dst.Rows != h.nodes {
		panic(&ExchangeError{Err: fmt.Errorf("partition covers %d nodes, matrix has %d rows", h.nodes, dst.Rows)})
	}
	recv, err := exchange(h.c, h.c.nextSite(), dst, h.Owned())
	if err != nil {
		panic(&ExchangeError{Err: err})
	}
	for id, m := range recv {
		if m == nil {
			continue
		}
		if err := scatterRows(dst, m, h.owned[id]); err != nil {
			panic(&ExchangeError{Err: fmt.Errorf("rows from shard %d: %w", id, err)})
		}
	}
}

// scatterRows copies a received frame's rows into dst. The frame must be
// at dst's dtype and width and carry exactly the rows want, in order.
func scatterRows[T tensor.Elem](dst *tensor.Mat[T], m *rowsMsg, want []int32) error {
	if m.dtype != tensor.DtypeOf[T]() || m.cols != dst.Cols {
		return fmt.Errorf("%s rows of %d cols, want %s rows of %d", m.dtype, m.cols, tensor.DtypeOf[T](), dst.Cols)
	}
	for i, id := range want {
		if i >= m.n {
			return fmt.Errorf("%d rows, want %d: id %d is missing", m.n, len(want), id)
		}
		got, bits := m.row(i)
		if got != id {
			return fmt.Errorf("row %d is id %d, want id %d", i, got, id)
		}
		tensor.FromBits(dst.Row(int(id)), bits)
	}
	if m.n > len(want) {
		id, _ := m.row(len(want))
		return fmt.Errorf("%d rows, want %d: id %d is not the shard's", m.n, len(want), id)
	}
	return nil
}
