// Package ppr implements Personalized PageRank computation, the graph
// analytics workhorse behind decoupled scalable GNNs (APPNP, SCARA, and the
// PPR-propagated models of tutorial §3.1.2/§3.3.1).
//
// Three estimators with different cost/accuracy profiles are provided:
//
//   - Power iteration: exact up to iteration truncation, O(m) per round.
//   - Forward push (Andersen, Chung, Lang): local, ε-approximate, touches
//     only the nodes whose residual exceeds the threshold — sublinear for
//     small ε·degree products, the reason decoupled GNNs scale.
//   - Monte Carlo random walks: unbiased, O(w) walks, converging as O(1/√w).
//
// All estimators use the random-walk convention: pi = α Σ_k (1-α)^k (D^{-1}A)^k e_s,
// i.e. the stationary distribution of an α-restart walk from the source.
package ppr

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"scalegnn/internal/graph"
	"scalegnn/internal/obs"
	"scalegnn/internal/tensor"
)

// Config holds common PPR parameters.
type Config struct {
	// Alpha is the teleport (restart) probability, in (0, 1].
	Alpha float64
	// Epsilon is the per-node residual threshold for forward push
	// (approximation guarantee: |pi(v) - p(v)| <= eps * deg(v)).
	Epsilon float64
	// MaxIter caps power-iteration rounds.
	MaxIter int
	// Tol is the L1 convergence tolerance for power iteration.
	Tol float64
}

func (c Config) validate() error {
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("ppr: alpha %v outside (0,1]", c.Alpha)
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("ppr: negative epsilon %v", c.Epsilon)
	}
	return nil
}

// PowerIteration computes the PPR vector of source s by iterating
// p_{t+1} = α e_s + (1-α) Pᵀ p_t with the random-walk operator, stopping
// when the L1 change falls below cfg.Tol or MaxIter is reached. Returns the
// vector, the number of iterations performed, and whether the iteration
// actually converged (L1 change < cfg.Tol). converged is false when MaxIter
// was exhausted first — the returned vector is then a truncated estimate,
// and callers that need the exact-up-to-Tol vector must check the flag
// rather than treating truncation as convergence.
func PowerIteration(g *graph.CSR, s int, cfg Config) (p []float64, iters int, converged bool, err error) {
	if err := cfg.validate(); err != nil {
		return nil, 0, false, err
	}
	if s < 0 || s >= g.N {
		return nil, 0, false, fmt.Errorf("ppr: source %d out of range [0,%d)", s, g.N)
	}
	sp := obs.Start("ppr.power_iteration")
	defer func() { sp.SetCount(int64(iters)); sp.End() }()
	// The mass-transfer step next = (A·D^{-1}) p is the column-stochastic
	// CSR operator, so each round is one row-parallel SpMV gather, ApplyInto
	// on n×1 views of p and next, instead of a serial per-edge scatter. The
	// views swap with the slices they view. Dangling nodes
	// (degree 0) drop out of the operator entirely; their mass restarts at
	// the source below, matching the scatter formulation.
	op := graph.NewOperator(g, graph.NormColumn, false)
	var dangling []int
	for u := 0; u < g.N; u++ {
		if g.Degree(u) == 0 {
			dangling = append(dangling, u)
		}
	}
	p = make([]float64, g.N)
	next := make([]float64, g.N)
	pm, nextm := tensor.FromSlice(g.N, 1, p), tensor.FromSlice(g.N, 1, next)
	p[s] = 1
	for ; iters < cfg.MaxIter; iters++ {
		op.ApplyInto(pm, nextm)
		decay := 1 - cfg.Alpha
		var dangMass float64
		for _, u := range dangling {
			dangMass += p[u]
		}
		for i := range next {
			next[i] *= decay
		}
		next[s] += cfg.Alpha + float64(decay*dangMass)
		var diff float64
		for i := range p {
			d := p[i] - next[i]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		p, next = next, p
		pm, nextm = nextm, pm
		if diff < cfg.Tol {
			iters++
			converged = true
			break
		}
	}
	return p, iters, converged, nil
}

// PushResult carries the output of ForwardPush: the reserve estimate, the
// leftover residual, and the number of push operations (the work measure
// the SCARA-style complexity claims are about).
type PushResult struct {
	Estimate []float64
	Residual []float64
	Pushes   int
}

// ForwardPush computes an ε-approximate PPR vector of source s with the
// local push algorithm. The invariant maintained throughout is
//
//	pi(v) = p(v) + Σ_u r(u) · pi_u(v)
//
// so when all residuals satisfy r(u) < ε·deg(u), every estimate is within
// ε·deg(v) of the truth. Work is proportional to pushed mass, independent
// of graph size for local queries.
func ForwardPush(g *graph.CSR, s int, cfg Config) (*PushResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if s < 0 || s >= g.N {
		return nil, fmt.Errorf("ppr: source %d out of range [0,%d)", s, g.N)
	}
	if cfg.Epsilon == 0 {
		return nil, fmt.Errorf("ppr: forward push requires epsilon > 0")
	}
	p := make([]float64, g.N)
	r := make([]float64, g.N)
	r[s] = 1
	queue := []int32{int32(s)}
	inQueue := make([]bool, g.N)
	inQueue[s] = true
	pushes := 0
	for len(queue) > 0 {
		u := int(queue[0])
		queue = queue[1:]
		inQueue[u] = false
		d := g.Degree(u)
		ru := r[u]
		if d == 0 {
			// Dangling: all residual mass becomes reserve at u (walk stuck,
			// teleports would restart; standard convention keeps it local).
			p[u] += ru
			r[u] = 0
			continue
		}
		if ru < cfg.Epsilon*float64(d) {
			continue
		}
		pushes++
		p[u] += float64(cfg.Alpha * ru)
		share := (1 - cfg.Alpha) * ru / float64(d)
		r[u] = 0
		for _, v := range g.Neighbors(u) {
			r[v] += share
			if !inQueue[v] && r[v] >= cfg.Epsilon*float64(g.Degree(int(v))) {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
	}
	return &PushResult{Estimate: p, Residual: r, Pushes: pushes}, nil
}

// MonteCarlo estimates the PPR vector of s from walks α-restart random
// walks, recording termination nodes. Unbiased; standard error shrinks as
// O(1/√walks).
func MonteCarlo(g *graph.CSR, s, walks int, alpha float64, rng *rand.Rand) ([]float64, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("ppr: alpha %v outside (0,1]", alpha)
	}
	if s < 0 || s >= g.N {
		return nil, fmt.Errorf("ppr: source %d out of range [0,%d)", s, g.N)
	}
	counts := make([]float64, g.N)
	for w := 0; w < walks; w++ {
		u := s
		for {
			if rng.Float64() < alpha {
				break
			}
			ns := g.Neighbors(u)
			if len(ns) == 0 {
				u = s // dangling: restart
				continue
			}
			u = int(ns[rng.IntN(len(ns))])
		}
		counts[u]++
	}
	inv := 1 / float64(walks)
	for i := range counts {
		counts[i] *= inv
	}
	return counts, nil
}

// Entry is a (node, score) pair.
type Entry struct {
	Node  int
	Score float64
}

// TopK returns the k largest entries of a score vector, ties broken by
// node ID, sorted descending by score.
func TopK(scores []float64, k int) []Entry {
	if k > len(scores) {
		k = len(scores)
	}
	entries := make([]Entry, 0, len(scores))
	for i, s := range scores {
		if s > 0 {
			entries = append(entries, Entry{Node: i, Score: s})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Score != entries[j].Score {
			return entries[i].Score > entries[j].Score
		}
		return entries[i].Node < entries[j].Node
	})
	if k > len(entries) {
		k = len(entries)
	}
	return entries[:k]
}
