package graph

import (
	"fmt"
	"math/rand/v2"
	"slices"
)

// This file contains synthetic graph generators. The tutorial's evaluation
// workloads (Papers100M-class citation graphs, social networks) are not
// available offline, so experiments run on synthetic graphs whose controlling
// parameters — size, degree distribution, community structure, homophily —
// can be swept directly. See DESIGN.md "Substitutions".
//
// All generators are intentionally sequential (not chunked over
// internal/par): every edge draw consumes the single caller-provided RNG
// stream, so the draw sequence — and therefore the generated graph for a
// given seed — depends on loop order. Splitting the stream across workers
// would silently change every downstream fingerprint.

// ErdosRenyi generates a G(n, m) uniform random undirected graph with
// exactly m distinct edges (self-loops excluded).
func ErdosRenyi(n, m int, rng *rand.Rand) *CSR {
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		m = maxEdges
	}
	seen := make(map[int64]struct{}, m)
	b := NewBuilder(n)
	for len(seen) < m {
		u := rng.IntN(n)
		v := rng.IntN(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)*int64(n) + int64(v)
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		b.AddEdge(u, v)
	}
	return b.MustBuild()
}

// BarabasiAlbert generates a preferential-attachment graph: nodes arrive one
// at a time and connect to k existing nodes chosen proportionally to degree.
// The result is an undirected power-law graph — the canonical stand-in for
// social and citation networks where neighborhood explosion is most severe.
func BarabasiAlbert(n, k int, rng *rand.Rand) *CSR {
	if k < 1 {
		k = 1
	}
	if n < k+1 {
		n = k + 1
	}
	b := NewBuilder(n)
	// repeated holds each node once per incident edge endpoint, so sampling
	// uniformly from it is degree-proportional sampling.
	repeated := make([]int32, 0, 2*n*k)
	// Seed with a (k+1)-clique.
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			b.AddEdge(u, v)
			repeated = append(repeated, int32(u), int32(v))
		}
	}
	// Targets are kept in draw order (k is tiny, so a scan finds duplicates):
	// the order they enter repeated decides every later draw, and the graph
	// must be a function of the seed.
	targets := make([]int32, 0, k)
	for u := k + 1; u < n; u++ {
		targets = targets[:0]
		for len(targets) < k {
			t := repeated[rng.IntN(len(repeated))]
			if int(t) != u && !slices.Contains(targets, t) {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			b.AddEdge(u, int(t))
			repeated = append(repeated, int32(u), t)
		}
	}
	return b.MustBuild()
}

// SBMConfig parameterizes a stochastic block model with planted communities.
type SBMConfig struct {
	Nodes      int     // total node count
	Blocks     int     // number of communities
	AvgDegree  float64 // expected degree per node
	Homophily  float64 // fraction of a node's edges that stay inside its block, in [0,1]
	Assignment []int   // optional explicit block per node; if nil, round-robin
}

// SBM generates a stochastic block model graph along with the block label of
// every node. Homophily h means an expected fraction h of each node's edges
// land inside its own block and (1-h) land uniformly across other blocks.
// Sweeping h from near 0 (heterophilous) to near 1 (homophilous) reproduces
// the regimes that §3.2.1–§3.2.2 of the tutorial are about.
func SBM(cfg SBMConfig, rng *rand.Rand) (*CSR, []int, error) {
	if cfg.Nodes <= 0 || cfg.Blocks <= 0 {
		return nil, nil, fmt.Errorf("graph: SBM needs positive Nodes and Blocks, got %d/%d", cfg.Nodes, cfg.Blocks)
	}
	if cfg.Homophily < 0 || cfg.Homophily > 1 {
		return nil, nil, fmt.Errorf("graph: SBM homophily %v outside [0,1]", cfg.Homophily)
	}
	n, kb := cfg.Nodes, cfg.Blocks
	labels := cfg.Assignment
	if labels == nil {
		labels = make([]int, n)
		for i := range labels {
			labels[i] = i % kb
		}
	} else if len(labels) != n {
		return nil, nil, fmt.Errorf("graph: SBM assignment length %d != nodes %d", len(labels), n)
	}
	members := make([][]int32, kb)
	for i, c := range labels {
		if c < 0 || c >= kb {
			return nil, nil, fmt.Errorf("graph: SBM label %d out of range", c)
		}
		members[c] = append(members[c], int32(i))
	}
	for c, m := range members {
		if len(m) == 0 {
			return nil, nil, fmt.Errorf("graph: SBM block %d empty", c)
		}
	}
	totalEdges := int(cfg.AvgDegree * float64(n) / 2)
	b := NewBuilder(n)
	seen := make(map[int64]struct{}, totalEdges)
	attempts := 0
	maxAttempts := totalEdges * 50
	for len(seen) < totalEdges && attempts < maxAttempts {
		attempts++
		u := rng.IntN(n)
		var v int
		if rng.Float64() < cfg.Homophily {
			// Intra-block edge.
			blk := members[labels[u]]
			v = int(blk[rng.IntN(len(blk))])
		} else {
			// Inter-block edge: uniform over nodes outside u's block. With
			// balanced blocks, rejection sampling terminates fast.
			for {
				v = rng.IntN(n)
				if labels[v] != labels[u] || kb == 1 {
					break
				}
			}
		}
		if u == v {
			continue
		}
		a, c := u, v
		if a > c {
			a, c = c, a
		}
		key := int64(a)*int64(n) + int64(c)
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		b.AddEdge(a, c)
	}
	return b.MustBuild(), labels, nil
}

// Grid generates an rows x cols 2D lattice (4-neighborhood). Grids have
// large diameter, making them the adversarial case for limited receptive
// fields (§3.2.3 implicit GNNs) and the friendly case for hub labeling.
func Grid(rows, cols int) *CSR {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// Path generates a path graph of n nodes — the extreme long-range-dependency
// topology used by the implicit-GNN experiments.
func Path(n int) *CSR {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}
