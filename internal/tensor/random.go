package tensor

import (
	"math"
	"math/rand/v2"
)

// NewPCG returns the seeded PCG source underlying NewRand. Callers that
// need to serialize RNG state (checkpoint/resume) hold the concrete *PCG —
// which implements encoding.BinaryMarshaler/Unmarshaler — while sharing
// its stream with model code through rand.New(pcg): the Rand is a
// stateless view, so restoring the PCG restores every alias at once.
func NewPCG(seed uint64) *rand.PCG {
	return rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
}

// NewRand returns a new seeded PRNG. All randomized code in scalegnn threads
// explicit *rand.Rand values so that every experiment is reproducible.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(NewPCG(seed))
}

// RandNormalOf fills a new rows x cols matrix of element type T with
// N(0, std²) entries. The draws happen in float64 and narrow afterwards, so
// a float32 run consumes the RNG stream exactly like its float64 twin —
// dtype never shifts downstream random decisions (shuffles, dropout masks).
func RandNormalOf[T Elem](rows, cols int, std float64, rng *rand.Rand) *Mat[T] {
	m := NewOf[T](rows, cols)
	for i := range m.Data {
		m.Data[i] = T(rng.NormFloat64() * std)
	}
	return m
}

// RandNormal fills a new float64 rows x cols matrix with N(0, std²) entries.
func RandNormal(rows, cols int, std float64, rng *rand.Rand) *Matrix {
	return RandNormalOf[float64](rows, cols, std, rng)
}

// randUniformOf fills a new rows x cols matrix of element type T with
// Uniform[lo, hi) entries, drawing in float64 (see RandNormalOf).
func randUniformOf[T Elem](rows, cols int, lo, hi float64, rng *rand.Rand) *Mat[T] {
	m := NewOf[T](rows, cols)
	for i := range m.Data {
		m.Data[i] = T(lo + float64(rng.Float64()*(hi-lo)))
	}
	return m
}

// GlorotUniformOf returns a rows x cols matrix of element type T
// initialized with the Glorot (Xavier) uniform scheme, the standard
// initializer for GNN weight matrices.
func GlorotUniformOf[T Elem](rows, cols int, rng *rand.Rand) *Mat[T] {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	return randUniformOf[T](rows, cols, -limit, limit, rng)
}

// GlorotUniform returns a float64 Glorot-initialized rows x cols matrix.
func GlorotUniform(rows, cols int, rng *rand.Rand) *Matrix {
	return GlorotUniformOf[float64](rows, cols, rng)
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func Perm(n int, rng *rand.Rand) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
