// Package implicit implements implicit (fixed-point) graph neural network
// layers — tutorial §3.2.3 "Graph Algebras". Instead of stacking K
// message-passing layers, an implicit GNN defines node states as the
// equilibrium of
//
//	Z = γ · P Z W + B(X)
//
// where P is the (symmetric-normalized) propagation operator, W a learnable
// channel-mixing matrix, and B(X) the input injection. Solving the
// equilibrium captures full-graph information in a single "layer",
// bypassing the limited receptive field of a K-layer convolution.
//
// Three solution strategies from the surveyed systems are implemented:
//
//   - Picard iteration (IGNN): contract to the fixed point; convergence is
//     guaranteed when γ·‖W‖₂ < 1.
//   - Eigen-decoupled solve (EIGNN): diagonalize a symmetric W = QΛQᵀ and
//     solve each transformed column (I − γλ_j P) z = b independently with
//     conjugate gradients — no joint iteration, better conditioning.
//   - Multiscale operators (MGNNI): a Solver's Scale replaces P by P^s, and
//     models.ImplicitNet combines the equilibria of several scales, expanding
//     the effective receptive field without extra solver cost per scale.
//
// Training uses exact implicit differentiation: gradients of the
// equilibrium are themselves fixed points of the adjoint equation, which
// is Solve on Wᵀ.
package implicit

import (
	"fmt"
	"math"

	"scalegnn/internal/graph"
	"scalegnn/internal/spectral"
	"scalegnn/internal/tensor"
)

// Solver solves implicit-GNN equilibria on a fixed propagation operator.
type Solver struct {
	Op      *graph.Operator
	Gamma   float64 // contraction factor γ in (0, 1)
	Tol     float64 // Frobenius-norm convergence tolerance
	MaxIter int     // Picard/CG iteration cap
	Scale   int     // propagation scale s: the operator used is P^s (>= 1)
}

// NewSolver returns a Solver with the defaults used across the library:
// tol 1e-8, 300 iterations, scale 1.
func NewSolver(op *graph.Operator, gamma float64) (*Solver, error) {
	if gamma <= 0 || gamma >= 1 {
		return nil, fmt.Errorf("implicit: gamma %v outside (0,1)", gamma)
	}
	return &Solver{Op: op, Gamma: gamma, Tol: 1e-8, MaxIter: 300, Scale: 1}, nil
}

// propagate writes P^Scale·x into dst. The hops alternate between dst and
// tmp and end in dst, so no hop writes into its own source; tmp is not
// touched at scale 1.
func (s *Solver) propagate(x, dst, tmp *tensor.Matrix) {
	src := x
	for h := max(s.Scale, 1); h > 0; h-- {
		out := dst
		if h%2 == 0 {
			out = tmp
		}
		s.Op.ApplyInto(src, out)
		src = out
	}
}

// Solve finds Z with Z = γ P^s Z W + B via Picard iteration, returning the
// equilibrium (pooled; the caller may tensor.PutBuf it) and the iterations
// used, allocating no matrix per iteration. W must satisfy γ‖W‖₂ < 1 for
// guaranteed convergence; the solver detects divergence and errors out.
// For a symmetric P, Solve(G, Wᵀ) with G = ∂L/∂Z is the adjoint
// equilibrium U = γ P^s U Wᵀ + G, which is ∂L/∂B.
func (s *Solver) Solve(b, w *tensor.Matrix) (*tensor.Matrix, int, error) {
	if b.Cols != w.Rows || w.Rows != w.Cols {
		return nil, 0, fmt.Errorf("implicit: shape mismatch B %dx%d, W %dx%d", b.Rows, b.Cols, w.Rows, w.Cols)
	}
	z := tensor.GetBuf(b.Rows, b.Cols)
	copy(z.Data, b.Data)
	next, pz := tensor.GetBuf(b.Rows, b.Cols), tensor.GetBuf(b.Rows, b.Cols)
	defer tensor.PutBuf(pz)
	prevDiff := math.Inf(1)
	for it := 1; it <= s.MaxIter; it++ {
		s.propagate(z, pz, next)
		tensor.MatMulInto(pz, w, next)
		// next = (γ·P^s Z W + B − Z) + Z, rounding each step; ‖residual‖² in order.
		var sq float64
		for i, v := range next.Data {
			d := float64(v*s.Gamma) + b.Data[i] - z.Data[i]
			sq += float64(d * d)
			next.Data[i] = d + z.Data[i]
		}
		diff := math.Sqrt(sq)
		z, next = next, z
		if diff < s.Tol {
			tensor.PutBuf(next)
			return z, it, nil
		}
		if diff > 10*prevDiff && diff > 1e6 {
			tensor.PutBuf(next)
			tensor.PutBuf(z)
			return nil, it, fmt.Errorf("implicit: Picard diverging (residual %g); is γ·‖W‖ < 1?", diff)
		}
		if diff < prevDiff {
			prevDiff = diff
		}
	}
	tensor.PutBuf(next)
	return z, s.MaxIter, nil
}

// GradW writes ∂L/∂W = γ (P^s Z)ᵀ U into dst (W's shape) from the
// equilibrium Z and the adjoint solution U.
func (s *Solver) GradW(z, u, dst *tensor.Matrix) {
	pz, tmp := tensor.GetBuf(z.Rows, z.Cols), tensor.GetBuf(z.Rows, z.Cols)
	s.propagate(z, pz, tmp)
	tensor.TMatMulInto(pz, u, dst)
	dst.Scale(s.Gamma)
	tensor.PutBuf(pz)
	tensor.PutBuf(tmp)
}

// SolveEig solves the equilibrium for a symmetric W by the EIGNN
// decoupling: with W = QΛQᵀ, setting Z̃ = ZQ gives independent per-column
// systems (I − γλ_j P^s) z̃_j = b̃_j, each solved by conjugate gradients.
// Returns the equilibrium and the total CG iterations across columns.
func (s *Solver) SolveEig(b, w *tensor.Matrix) (*tensor.Matrix, int, error) {
	if w.Rows != w.Cols || b.Cols != w.Rows {
		return nil, 0, fmt.Errorf("implicit: shape mismatch B %dx%d, W %dx%d", b.Rows, b.Cols, w.Rows, w.Cols)
	}
	// Verify symmetry: the decoupling requires it.
	for i := 0; i < w.Rows; i++ {
		for j := i + 1; j < w.Cols; j++ {
			if math.Abs(w.At(i, j)-w.At(j, i)) > 1e-10 {
				return nil, 0, fmt.Errorf("implicit: SolveEig requires symmetric W (asymmetry at %d,%d)", i, j)
			}
		}
	}
	vals, q := spectral.JacobiEigen(w, 100)
	btilde := tensor.MatMul(b, q)
	ztilde := tensor.New(b.Rows, b.Cols)
	totalIters := 0
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			col[i] = btilde.At(i, j)
		}
		sol, iters, err := s.cgSolve(col, s.Gamma*vals[j])
		if err != nil {
			return nil, totalIters, fmt.Errorf("implicit: column %d: %w", j, err)
		}
		totalIters += iters
		for i := 0; i < b.Rows; i++ {
			ztilde.Set(i, j, sol[i])
		}
	}
	return tensor.MatMulT(ztilde, q), totalIters, nil
}

// cgSolve solves (I − μ P^s) x = rhs with conjugate gradients. The system
// is SPD whenever |μ| < 1 and P is symmetric with spectrum in [−1, 1].
func (s *Solver) cgSolve(rhs []float64, mu float64) ([]float64, int, error) {
	if math.Abs(mu) >= 1 {
		return nil, 0, fmt.Errorf("implicit: CG system not PD (|μ|=%v >= 1)", math.Abs(mu))
	}
	n := len(rhs)
	x := make([]float64, n)
	r := append([]float64(nil), rhs...)
	p := append([]float64(nil), rhs...)
	rs := tensor.Dot(r, r)
	if math.Sqrt(rs) < s.Tol {
		return x, 0, nil
	}
	// ap = (I − μ P^s) p, with P^s p written into the pooled px.
	pm, ap := tensor.FromSlice(n, 1, p), make([]float64, n)
	px, tmp := tensor.GetBuf(n, 1), tensor.GetBuf(n, 1)
	defer tensor.PutBuf(px)
	defer tensor.PutBuf(tmp)
	for it := 1; it <= s.MaxIter; it++ {
		s.propagate(pm, px, tmp)
		for i, v := range px.Data {
			ap[i] = p[i] - float64(mu*v)
		}
		alpha := rs / tensor.Dot(p, ap)
		tensor.Axpy(alpha, p, x)
		tensor.Axpy(-alpha, ap, r)
		rsNew := tensor.Dot(r, r)
		if math.Sqrt(rsNew) < s.Tol {
			return x, it, nil
		}
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + float64(beta*p[i])
		}
		rs = rsNew
	}
	return x, s.MaxIter, nil
}

// spectralNorm estimates ‖W‖₂ by power iteration — used to project the
// learnable W back inside the contraction region after optimizer steps.
func spectralNorm(w *tensor.Matrix, iters int) float64 {
	if w.Rows == 0 || w.Cols == 0 {
		return 0
	}
	v := make([]float64, w.Cols)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(len(v)))
	}
	var sigma float64
	for it := 0; it < iters; it++ {
		// u = W v; v = Wᵀ u.
		u := make([]float64, w.Rows)
		for i := 0; i < w.Rows; i++ {
			u[i] = tensor.Dot(w.Row(i), v)
		}
		sigma = tensor.Norm2(u)
		if sigma == 0 {
			return 0
		}
		tensor.ScaleVec(1/sigma, u)
		for j := range v {
			var s float64
			for i := 0; i < w.Rows; i++ {
				s += float64(w.At(i, j) * u[i])
			}
			v[j] = s
		}
		tensor.Normalize(v)
	}
	return sigma
}

// ProjectSpectralNorm rescales W in place so ‖W‖₂ ≤ maxNorm, returning the
// pre-projection norm. The projected-gradient step that keeps implicit GNN
// training inside the well-posed (contractive) region.
func ProjectSpectralNorm(w *tensor.Matrix, maxNorm float64) float64 {
	sigma := spectralNorm(w, 30)
	if sigma > maxNorm && sigma > 0 {
		w.Scale(maxNorm / sigma)
	}
	return sigma
}
