package tensor

import (
	"fmt"
	"sync"
	"unsafe"

	"scalegnn/internal/obs"
)

// Pool is a shape-keyed pool of matrices backing the allocation-free
// training hot path, generic over the element type. Get/Put recycle buffers
// of identical shape through a sync.Pool per shape, so steady-state
// forward/backward passes reuse the same memory epoch after epoch instead
// of reallocating per call. Buffers are dropped automatically under GC
// pressure (sync.Pool semantics), so a pool never pins more memory than the
// live working set.
//
// A Pool is safe for concurrent use. The zero value is ready to use.
type Pool[T Elem] struct {
	pools sync.Map // shapeKey -> *sync.Pool of *Mat[T]
}

// Workspace is the float64 pool — the historical name every float64 call
// site uses.
type Workspace = Pool[float64]

type shapeKey struct{ rows, cols int }

// Default is the process-wide float64 workspace used by the package-level
// GetBuf/GetZeroBuf/PutBuf helpers and, through them, by the nn layers and
// model training loops.
var Default = &Workspace{}

// Default32 is the process-wide float32 workspace backing the raw-speed
// tier's pooled buffers.
var Default32 = &Pool[float32]{}

// defaultPool returns the process-wide pool for the element type T —
// Default for float64, Default32 for float32 — so generic layers and
// kernels share pooled buffers with every other user of that dtype.
func defaultPool[T Elem]() *Pool[T] {
	var z T
	var p any
	switch any(z).(type) {
	case float32:
		p = Default32
	default:
		p = Default
	}
	return p.(*Pool[T])
}

// Get returns a rows x cols matrix with UNSPECIFIED contents: callers must
// fully overwrite it (the *Into kernels do). Use GetZero when zeros are
// required.
func (w *Pool[T]) Get(rows, cols int) *Mat[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: Workspace.Get invalid shape %dx%d", rows, cols))
	}
	p, ok := w.pools.Load(shapeKey{rows, cols})
	if ok {
		if m, _ := p.(*sync.Pool).Get().(*Mat[T]); m != nil {
			poolHits.Add(1)
			return m
		}
	}
	poolMisses.Add(1)
	return NewOf[T](rows, cols)
}

// Pool hit/miss refs for every workspace in the process (all element
// types). Unbound (the default) they cost one atomic pointer load per Get —
// nothing is counted and nothing allocates; EnablePoolMetrics turns them on.
var (
	poolHits   obs.CounterRef
	poolMisses obs.CounterRef
)

// EnablePoolMetrics binds the workspace pool counters to reg:
//
//	tensor.pool_hits    counter  Get calls served from the pool
//	tensor.pool_misses  counter  Get calls that allocated a fresh matrix
//
// Steady-state training should show a hit rate near 1 (the allocation-free
// hot path); a climbing miss count flags shape churn. Pass nil to unbind.
func EnablePoolMetrics(reg *obs.Registry) {
	if reg == nil {
		poolHits.Bind(nil)
		poolMisses.Bind(nil)
		return
	}
	poolHits.Bind(reg.Counter("tensor.pool_hits"))
	poolMisses.Bind(reg.Counter("tensor.pool_misses"))
}

// GetZero returns a zeroed rows x cols matrix.
func (w *Pool[T]) GetZero(rows, cols int) *Mat[T] {
	m := w.Get(rows, cols)
	m.Zero()
	return m
}

// Put returns m to the pool for its exact shape. m must not be used after
// Put. Putting nil or an empty matrix is a no-op.
func (w *Pool[T]) Put(m *Mat[T]) {
	if m == nil || len(m.Data) == 0 {
		return
	}
	key := shapeKey{m.Rows, m.Cols}
	p, ok := w.pools.Load(key)
	if !ok {
		p, _ = w.pools.LoadOrStore(key, &sync.Pool{})
	}
	p.(*sync.Pool).Put(m)
}

// GetBuf returns a float64 matrix from the Default workspace (contents
// unspecified).
func GetBuf(rows, cols int) *Matrix { return Default.Get(rows, cols) }

// GetZeroBuf returns a zeroed float64 matrix from the Default workspace.
func GetZeroBuf(rows, cols int) *Matrix { return Default.GetZero(rows, cols) }

// PutBuf returns a float64 matrix to the Default workspace.
func PutBuf(m *Matrix) { Default.Put(m) }

// GetBufOf returns a matrix of element type T from that type's default pool
// (contents unspecified).
func GetBufOf[T Elem](rows, cols int) *Mat[T] { return defaultPool[T]().Get(rows, cols) }

// GetZeroBufOf returns a zeroed matrix of element type T from that type's
// default pool.
func GetZeroBufOf[T Elem](rows, cols int) *Mat[T] { return defaultPool[T]().GetZero(rows, cols) }

// PutBufOf returns a matrix to its element type's default pool.
func PutBufOf[T Elem](m *Mat[T]) { defaultPool[T]().Put(m) }

// BufOf is a single-slot recycling handle for the canonical layer-output
// pattern: each call to Next recycles the buffer handed out by the previous
// call and acquires a fresh one from the workspace. Because training loops
// consume a layer's output before the next forward/backward pass, the
// previous-generation buffer is dead by the time Next runs again, so the
// hand-back is safe and the steady state allocates nothing.
//
// Callers that hold a returned matrix across two calls to Next on the same
// Buf will observe it being overwritten — clone anything that must outlive
// the next pass.
type BufOf[T Elem] struct {
	cur *Mat[T]
}

// Buf is the float64 instantiation of BufOf.
type Buf = BufOf[float64]

// Next recycles the previously returned buffer and hands out a rows x cols
// matrix with unspecified contents.
func (b *BufOf[T]) Next(rows, cols int) *Mat[T] {
	ws := defaultPool[T]()
	if b.cur != nil {
		ws.Put(b.cur)
	}
	b.cur = ws.Get(rows, cols)
	return b.cur
}

// NextZero is Next with zeroed contents.
func (b *BufOf[T]) NextZero(rows, cols int) *Mat[T] {
	m := b.Next(rows, cols)
	m.Zero()
	return m
}

// Release returns the current buffer (if any) to the workspace.
func (b *BufOf[T]) Release() {
	if b.cur != nil {
		defaultPool[T]().Put(b.cur)
		b.cur = nil
	}
}

// Overlaps reports whether the backing arrays of a and b share any memory.
// It is the full data-range aliasing check used by the *Into kernels and
// graph propagation: views built with FromSlice over one backing slice
// overlap even when their first elements differ.
func Overlaps[T Elem](a, b []T) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	aLo := uintptr(unsafe.Pointer(&a[0]))
	aHi := aLo + uintptr(len(a))*unsafe.Sizeof(a[0])
	bLo := uintptr(unsafe.Pointer(&b[0]))
	bHi := bLo + uintptr(len(b))*unsafe.Sizeof(b[0])
	return aLo < bHi && bLo < aHi
}
