// Package simrank implements SimRank node-pair similarity — the structural
// metric SIMGA (tutorial §3.2.2) uses to discover global, long-distance
// relevance for heterophilous GNN aggregation.
//
// Two computation paths are provided, mirroring the exact/approximate split
// in the literature:
//
//   - AllPairs: the classic Jeh-Widom iteration S ← C·WᵀSW with unit
//     diagonal, exact up to truncation. O(n²) memory; small graphs and tests.
//   - Index: Fogaras-Rácz walk fingerprints with an inverted occurrence
//     index, supporting single-source and top-k queries in time proportional
//     to walk collisions — sublinear in n for sparse graphs, which is what
//     makes SimRank usable inside a scalable GNN pipeline.
//
// SimRank here follows the random-surfer-pair model: s(a,b) = E[C^τ] where τ
// is the first meeting time of two independent √C-decayed walks. On
// undirected graphs walks step to uniform neighbors.
package simrank

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"scalegnn/internal/graph"
	"scalegnn/internal/par"
	"scalegnn/internal/tensor"
)

// AllPairs computes the SimRank matrix by the Jeh-Widom fixed-point
// iteration with decay c, running iters rounds. The returned matrix is
// symmetric with unit diagonal. O(n²·d) per round via sparse-dense products;
// intended for graphs small enough to hold an n×n dense matrix.
func AllPairs(g *graph.CSR, c float64, iters int) (*tensor.Matrix, error) {
	if c <= 0 || c >= 1 {
		return nil, fmt.Errorf("simrank: decay c=%v outside (0,1)", c)
	}
	if iters < 1 {
		return nil, fmt.Errorf("simrank: iters=%d < 1", iters)
	}
	n := g.N
	s := tensor.New(n, n)
	for i := 0; i < n; i++ {
		s.Set(i, i, 1)
	}
	// One iteration: S' = c · Wᵀ S W (W = A·D^{-1} column-normalized, i.e.
	// averaging over neighbors), then diag(S') = 1.
	// Each destination row a reads only src and writes only dst.Row(a), and
	// its neighbor sum is accumulated in a fixed order within one worker —
	// chunking rows over internal/par keeps the result bitwise identical to
	// the sequential loop.
	avgNeighbors := func(src *tensor.Matrix) *tensor.Matrix {
		// dst[a][j] = (1/deg(a)) Σ_{i ∈ N(a)} src[i][j]
		dst := tensor.New(n, n)
		par.Range(n, 8, func(lo, hi int) {
			for a := lo; a < hi; a++ {
				ns := g.Neighbors(a)
				if len(ns) == 0 {
					continue
				}
				inv := 1 / float64(len(ns))
				drow := dst.Row(a)
				for _, i := range ns {
					srow := src.Row(int(i))
					for j := range drow {
						drow[j] += srow[j]
					}
				}
				for j := range drow {
					drow[j] *= inv
				}
			}
		})
		return dst
	}
	for it := 0; it < iters; it++ {
		half := avgNeighbors(s)        // rows averaged
		s = avgNeighbors(half.T()).T() // columns averaged (via transpose)
		s.Scale(c)
		for i := 0; i < n; i++ {
			s.Set(i, i, 1)
		}
	}
	return s, nil
}

// Index is a precomputed walk-fingerprint index for Monte Carlo SimRank
// queries. Building costs O(n·R·L) walk steps and memory; queries then cost
// time proportional to actual walk collisions.
type Index struct {
	g     *graph.CSR
	c     float64
	r     int     // walks per node
	l     int     // walk length
	walks []int32 // walks[(rw*(l+1)+t)*n + v] = position of v's rw-th walk at step t
	// occ[(rw*l + (t-1))] maps node -> sources whose rw-th walk visits it at
	// step t. Built lazily as sorted (pos, src) pairs for cache efficiency.
	occ []map[int32][]int32
}

// IndexConfig configures BuildIndex.
type IndexConfig struct {
	C      float64 // SimRank decay, in (0,1); 0.6 is the usual choice
	Walks  int     // walks per node (R); error shrinks as O(1/√R)
	Length int     // walk length (L); truncates C^L tail mass
}

// DefaultIndexConfig returns C=0.6, 64 walks of length 5 — enough for the
// top-k ordering experiments while keeping index memory at ~n·R·L int32s.
func DefaultIndexConfig() IndexConfig { return IndexConfig{C: 0.6, Walks: 64, Length: 5} }

// BuildIndex samples R √c-continuing walks of length L from every node and
// builds the inverted occurrence index.
//
// Walk semantics: the pair-walk model decays by c per simultaneous step, so
// each single walk continues with probability √c per step (two walks
// stepping together contribute c). A walk that stops is marked absent (-1)
// from then on.
func BuildIndex(g *graph.CSR, cfg IndexConfig, rng *rand.Rand) (*Index, error) {
	if cfg.C <= 0 || cfg.C >= 1 {
		return nil, fmt.Errorf("simrank: decay c=%v outside (0,1)", cfg.C)
	}
	if cfg.Walks < 1 || cfg.Length < 1 {
		return nil, fmt.Errorf("simrank: need positive Walks and Length, got %d/%d", cfg.Walks, cfg.Length)
	}
	n := g.N
	idx := &Index{g: g, c: cfg.C, r: cfg.Walks, l: cfg.Length}
	idx.walks = make([]int32, cfg.Walks*(cfg.Length+1)*n)
	idx.occ = make([]map[int32][]int32, cfg.Walks*cfg.Length)
	sqrtC := math.Sqrt(cfg.C)
	for rw := 0; rw < cfg.Walks; rw++ {
		for t := 1; t <= cfg.Length; t++ {
			idx.occ[rw*cfg.Length+t-1] = make(map[int32][]int32)
		}
		for v := 0; v < n; v++ {
			idx.walks[(rw*(cfg.Length+1))*n+v] = int32(v)
			cur := int32(v)
			alive := true
			for t := 1; t <= cfg.Length; t++ {
				if alive {
					if rng.Float64() >= sqrtC {
						alive = false
					} else {
						ns := g.Neighbors(int(cur))
						if len(ns) == 0 {
							alive = false
						} else {
							cur = ns[rng.IntN(len(ns))]
						}
					}
				}
				slot := (rw*(cfg.Length+1) + t) * n
				if alive {
					idx.walks[slot+v] = cur
					m := idx.occ[rw*cfg.Length+t-1]
					m[cur] = append(m[cur], int32(v))
				} else {
					idx.walks[slot+v] = -1
				}
			}
		}
	}
	return idx, nil
}

// MemoryFootprint returns the approximate index size in bytes (walk array
// plus occurrence lists), the quantity the §3.3.3 storage experiments track.
func (ix *Index) MemoryFootprint() int {
	bytes := len(ix.walks) * 4
	for _, m := range ix.occ {
		for _, lst := range m {
			bytes += 4*len(lst) + 16
		}
	}
	return bytes
}

// SingleSource estimates s(a, b) for all b, returning a dense score slice.
// First-meeting semantics: for each walk pair r, only the earliest collision
// between a's walk and b's walk counts.
func (ix *Index) SingleSource(a int) ([]float64, error) {
	if a < 0 || a >= ix.g.N {
		return nil, fmt.Errorf("simrank: source %d out of range [0,%d)", a, ix.g.N)
	}
	scores := make([]float64, ix.g.N)
	met := make(map[int32]bool, 64)
	invR := 1 / float64(ix.r)
	for rw := 0; rw < ix.r; rw++ {
		clear(met)
		for t := 1; t <= ix.l; t++ {
			pos := ix.walks[(rw*(ix.l+1)+t)*ix.g.N+a]
			if pos < 0 {
				break // a's walk stopped; no further meetings possible
			}
			// All sources whose rw-th walk is at pos at step t collide here.
			for _, b := range ix.occ[rw*ix.l+t-1][pos] {
				if int(b) == a || met[b] {
					continue
				}
				met[b] = true
				scores[b] += invR // decay already encoded in √c walk survival
			}
		}
	}
	scores[a] = 1
	return scores, nil
}

// Entry is a scored node.
type Entry struct {
	Node  int
	Score float64
}

// TopK returns the k most similar nodes to a (excluding a itself), sorted
// descending by score with ties broken by node ID — the query SIMGA issues
// per node to assemble its global-aggregation neighborhood.
func (ix *Index) TopK(a, k int) ([]Entry, error) {
	scores, err := ix.SingleSource(a)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, 64)
	for v, s := range scores {
		if v != a && s > 0 {
			entries = append(entries, Entry{Node: v, Score: s})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Score != entries[j].Score {
			return entries[i].Score > entries[j].Score
		}
		return entries[i].Node < entries[j].Node
	})
	if k < len(entries) {
		entries = entries[:k]
	}
	return entries, nil
}
