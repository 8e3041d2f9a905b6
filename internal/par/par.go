// Package par provides the shared deterministic work partitioner used by
// every parallel kernel in scalegnn (dense tensor kernels, sparse graph
// propagation, samplers). Centralizing the split logic guarantees that all
// kernels chunk work identically — same chunk boundaries for the same n —
// which keeps parallel reductions deterministic, and gives one place to
// tune parallelism (e.g. capping workers for benchmarking or co-tenancy).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"scalegnn/internal/obs"
)

// workerCap caps the number of concurrent workers; 0 means GOMAXPROCS.
var workerCap atomic.Int64

// SetMaxWorkers caps the worker count used by Range and returns the
// previous cap. n <= 0 restores the default (GOMAXPROCS at call time).
// Safe for concurrent use; intended for benchmarks and co-tenant tuning.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workerCap.Swap(int64(n)))
}

// maxWorkers returns the current worker cap (GOMAXPROCS if unset).
func maxWorkers() int {
	if n := int(workerCap.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Workers returns the number of chunks Range will use for n items with the
// given minimum chunk size. It is exported so callers can pre-size
// per-worker scratch space to match the split exactly.
func Workers(n, minChunk int) int {
	if minChunk < 1 {
		minChunk = 1
	}
	w := maxWorkers()
	if w > n/minChunk {
		w = n / minChunk
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Range splits [0, n) into contiguous chunks, one per worker, and runs
// fn(lo, hi) concurrently on each. The split is deterministic: for a given
// (n, minChunk, worker cap) every call produces identical chunk boundaries,
// so floating-point reductions partitioned this way are reproducible.
// When the work is too small to amortize goroutine overhead (fewer than
// 2*minChunk items, or a cap of 1), fn runs inline on the calling
// goroutine. fn must not panic across goroutines.
func Range(n, minChunk int, fn func(lo, hi int)) {
	workers := Workers(n, minChunk)
	if workers <= 1 {
		if n > 0 {
			inlineRanges.Add(1)
			fn(0, n)
		}
		return
	}
	parallelRanges.Add(1)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	spawned := 0
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		spawned++
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	tasksSpawned.Add(int64(spawned))
	wg.Wait()
}

// The partitioner's metric refs (see DESIGN.md "Observability"), disabled
// until EnableMetrics binds them: with no registry each Range pays one
// atomic pointer load, nothing more. A high inline share on large inputs
// points at minChunk tuning; tasks per parallel range shows the fan-out.
var (
	inlineRanges   = obs.CounterRef{Name: "par.ranges_inline"}
	parallelRanges = obs.CounterRef{Name: "par.ranges_parallel"}
	tasksSpawned   = obs.CounterRef{Name: "par.tasks"}
)

// EnableMetrics binds the partitioner's metrics to reg; nil unbinds them.
func EnableMetrics(reg *obs.Registry) {
	obs.Bind(reg, &inlineRanges, &parallelRanges, &tasksSpawned)
}
