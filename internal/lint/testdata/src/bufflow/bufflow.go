// Package bufflow is a gnnlint test fixture for the buf-flow check:
// path-sensitive workspace-buffer lifetimes with call-graph handoff
// summaries.
package bufflow

import (
	"errors"

	"scalegnn/internal/par"
	"scalegnn/internal/tensor"
)

var errTooBig = errors.New("bufflow: too big")

// leakOnError acquires a buffer and forgets it on the error path — the
// classic bug buf-flow exists to catch.
func leakOnError(n int) (float64, error) {
	m := tensor.GetBuf(n, n)
	if n > 1024 {
		return 0, errTooBig // want "may leak"
	}
	v := m.Data[0]
	tensor.PutBuf(m)
	return v, nil
}

// useAfterRelease reads a buffer after returning it to the pool.
func useAfterRelease(n int) float64 {
	m := tensor.GetBuf(n, n)
	tensor.PutBuf(m)
	return m.Data[0] // want "after it was released"
}

// doubleRelease returns the same buffer twice.
func doubleRelease(n int) {
	m := tensor.GetBuf(n, n)
	tensor.PutBuf(m)
	tensor.PutBuf(m) // want "released twice"
}

// maybeReleased releases on one branch only: the final read is a
// use-after-release on that path AND a leak on the other.
func maybeReleased(n int) float64 {
	m := tensor.GetBuf(n, n)
	if n > 2 {
		tensor.PutBuf(m)
	}
	return m.Data[0] // want "after it was released" "may leak"
}

// releaseHelper releases its parameter on every exit: summary RELEASES.
func releaseHelper(m *tensor.Matrix) {
	tensor.PutBuf(m)
}

// helperClean hands its obligation to releaseHelper — no leak.
func helperClean(n int) {
	m := tensor.GetBuf(n, n)
	releaseHelper(m)
}

// helperDoubleRelease releases after the helper already did.
func helperDoubleRelease(n int) {
	m := tensor.GetBuf(n, n)
	releaseHelper(m)
	tensor.PutBuf(m) // want "released twice"
}

// paramUseAfterRelease: parameters carry no leak obligation but misuse
// after release is still misuse.
func paramUseAfterRelease(m *tensor.Matrix) float64 {
	tensor.PutBuf(m)
	return m.Data[0] // want "after it was released"
}

// deferClean is the normal pattern: release scheduled up front.
func deferClean(n int) float64 {
	m := tensor.GetBuf(n, n)
	defer tensor.PutBuf(m)
	return m.Data[0]
}

// deferDouble schedules a release and then also releases eagerly.
func deferDouble(n int) {
	m := tensor.GetBuf(n, n)
	defer tensor.PutBuf(m)
	tensor.PutBuf(m) // want "released twice"
}

// leakInLoop: the continue path skips the release, so the next iteration
// reacquires over a live buffer and the loop exit still owes one.
func leakInLoop(k int) {
	for i := 0; i < k; i++ {
		m := tensor.GetBuf(4, 4) // want "reacquired while a previously acquired" "never released on some path"
		if i%2 == 0 {
			continue
		}
		tensor.PutBuf(m)
	}
}

// handOff returns the buffer: ownership moves to the caller, no leak.
func handOff(n int) *tensor.Matrix {
	m := tensor.GetBuf(n, n)
	return m
}

var sink *tensor.Matrix

// storeGlobal escapes the buffer into package state — silent handoff.
func storeGlobal(n int) {
	m := tensor.GetBuf(n, n)
	sink = m
}

// goroutineHandoff: the spawned goroutine owns what it captures.
func goroutineHandoff(n int) {
	m := tensor.GetBuf(n, n)
	go func() {
		tensor.PutBuf(m)
	}()
}

// parUse: par.Range runs its task to completion before returning, so the
// capture is a synchronous use and the release below is correct.
func parUse(n int) {
	m := tensor.GetBuf(1, n)
	par.Range(len(m.Data), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.Data[i] = 0
		}
	})
	tensor.PutBuf(m)
}

// pingPong swaps two buffers each sweep; the permutation moves states so
// both are still owned (once each) at the end.
func pingPong(n, iters int) {
	cur := tensor.GetBuf(n, n)
	next := tensor.GetBuf(n, n)
	for i := 0; i < iters; i++ {
		next.Data[0] = cur.Data[0] + 1
		cur, next = next, cur
	}
	tensor.PutBuf(cur)
	tensor.PutBuf(next)
}

// handleDoubleRelease double-releases a zero-value Buf handle, the way
// layers and training loops hold their recycled outputs.
func handleDoubleRelease(n int) {
	var b tensor.Buf
	b.Next(n, n).Zero()
	b.Release()
	b.Release() // want "released twice"
}

// suppressedLeak shows the escape hatch: the early return would leak, but
// the directive (with its mandatory reason) silences it.
func suppressedLeak(n int) (float64, error) {
	m := tensor.GetBuf(n, n)
	if n > 1024 {
		//lint:ignore buf-flow probe path exits the process immediately
		return 0, errTooBig
	}
	v := m.Data[0]
	tensor.PutBuf(m)
	return v, nil
}
