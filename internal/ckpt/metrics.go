package ckpt

import (
	"sync/atomic"

	"scalegnn/internal/obs"
)

// Package metrics, disabled (one atomic load per site) until a session
// binds them with EnableMetrics — the same convention as internal/train.
var (
	bytesWritten   obs.CounterRef
	snapshotsSaved obs.CounterRef
	fallbacks      obs.CounterRef
	saveSeconds    atomic.Pointer[obs.Histogram]
)

// EnableMetrics binds the checkpoint metrics to reg:
//
//	ckpt.bytes_written    total snapshot bytes durably written
//	ckpt.snapshots_saved  snapshots committed (rename completed)
//	ckpt.fallbacks        unusable snapshots skipped during resume
//	ckpt.save_seconds     durable-write latency histogram
func EnableMetrics(reg *obs.Registry) {
	bytesWritten.Bind(reg.Counter("ckpt.bytes_written"))
	snapshotsSaved.Bind(reg.Counter("ckpt.snapshots_saved"))
	fallbacks.Bind(reg.Counter("ckpt.fallbacks"))
	saveSeconds.Store(reg.Histogram("ckpt.save_seconds",
		[]float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10}))
}

// Fingerprint hashes a run identity (model name, dataset content key,
// config fields) with FNV-1a so mismatched resumes are rejected. Callers feed
// it the values that must match for a snapshot to be resumable.
type Fingerprint struct{ h uint64 }

// NewFingerprint returns an initialized FNV-1a accumulator.
func NewFingerprint() *Fingerprint { return &Fingerprint{h: 14695981039346656037} }

func (f *Fingerprint) mix(b byte) { f.h = (f.h ^ uint64(b)) * 1099511628211 }

// String folds a string into the fingerprint.
func (f *Fingerprint) String(s string) *Fingerprint {
	for i := 0; i < len(s); i++ {
		f.mix(s[i])
	}
	f.mix(0xff) // separator: String("ab")+String("c") != String("a")+String("bc")
	return f
}

// U64 folds a 64-bit value (int sizes, float bits, seeds) in.
func (f *Fingerprint) U64(v uint64) *Fingerprint {
	for i := 0; i < 8; i++ {
		f.mix(byte(v >> (8 * i)))
	}
	return f
}

// Sum returns the accumulated fingerprint.
func (f *Fingerprint) Sum() uint64 { return f.h }
