package ckpt

import "scalegnn/internal/obs"

// The package's metric refs (see DESIGN.md "Observability"), disabled (one
// atomic load per site) until EnableMetrics binds them.
var (
	bytesWritten   = obs.CounterRef{Name: "ckpt.bytes_written"}
	snapshotsSaved = obs.CounterRef{Name: "ckpt.snapshots_saved"}
	fallbacks      = obs.CounterRef{Name: "ckpt.fallbacks"}
	saveSeconds    = obs.HistogramRef{Name: "ckpt.save_seconds", Bounds: []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10}}
)

// EnableMetrics binds the checkpoint metrics to reg; nil unbinds them.
func EnableMetrics(reg *obs.Registry) {
	obs.Bind(reg, &bytesWritten, &snapshotsSaved, &fallbacks, &saveSeconds)
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
