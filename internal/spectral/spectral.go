// Package spectral implements graph spectral filtering: polynomial filters
// over the normalized Laplacian, small dense and subspace eigensolvers, and
// the multi-filter embedding used by scalable spectral GNNs (tutorial
// §3.2.1 — LD2).
//
// A spectral filter h(λ) is applied to node features X as h(L)·X where
// L = I − D^{-1/2} A D^{-1/2} is the symmetric normalized Laplacian, whose
// spectrum lies in [0, 2]. All filters here are polynomials evaluated by
// sparse matrix-vector recurrences, so applying a degree-K filter costs
// K sparse products — never an explicit eigendecomposition. That is the
// property that keeps spectral GNNs scalable.
package spectral

import (
	"fmt"
	"math"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

// Basis selects the polynomial basis used to express a filter.
type Basis int

const (
	// Monomial expresses h(λ) = Σ c_k λ^k.
	Monomial Basis = iota
	// Chebyshev expresses h on the rescaled spectrum λ' = λ − 1 ∈ [−1,1]
	// as Σ c_k T_k(λ'), the numerically stable basis used by ChebNet and
	// recommended by the UniFilter/AdaptKry line of work.
	Chebyshev
)

func (b Basis) String() string {
	switch b {
	case Monomial:
		return "monomial"
	case Chebyshev:
		return "chebyshev"
	default:
		return fmt.Sprintf("Basis(%d)", int(b))
	}
}

// Filter is a fixed-coefficient polynomial spectral filter.
type Filter struct {
	Basis  Basis
	Coeffs []float64 // Coeffs[k] multiplies the k-th basis polynomial
}

// Apply computes h(L)·X where L is the normalized Laplacian derived from
// op (op must be the NormSymmetric adjacency operator; L·x = x − op·x).
func (f *Filter) Apply(op *graph.Operator, x *tensor.Matrix) *tensor.Matrix {
	if len(f.Coeffs) == 0 {
		return tensor.New(x.Rows, x.Cols)
	}
	switch f.Basis {
	case Monomial:
		return f.applyMonomial(op, x)
	case Chebyshev:
		return f.applyChebyshev(op, x)
	default:
		panic(fmt.Sprintf("spectral: unknown basis %d", int(f.Basis)))
	}
}

// lap computes L·x = x − P·x into a fresh matrix.
func lap(op *graph.Operator, x *tensor.Matrix) *tensor.Matrix {
	px := op.Apply(x)
	out := x.Clone()
	out.Sub(px)
	return out
}

func (f *Filter) applyMonomial(op *graph.Operator, x *tensor.Matrix) *tensor.Matrix {
	// Horner-free accumulation: track L^k x incrementally.
	out := x.Clone()
	out.Scale(f.Coeffs[0])
	cur := x
	for k := 1; k < len(f.Coeffs); k++ {
		cur = lap(op, cur)
		if f.Coeffs[k] != 0 {
			out.AddScaled(f.Coeffs[k], cur)
		}
	}
	return out
}

func (f *Filter) applyChebyshev(op *graph.Operator, x *tensor.Matrix) *tensor.Matrix {
	// Basis argument is L̃ = L − I (spectrum in [−1, 1] assuming λmax = 2):
	// L̃·x = −P·x. Recurrence: T_0 = X, T_1 = L̃X, T_{k} = 2 L̃ T_{k-1} − T_{k-2}.
	ltilde := func(m *tensor.Matrix) *tensor.Matrix {
		pm := op.Apply(m)
		pm.Scale(-1)
		return pm
	}
	out := x.Clone()
	out.Scale(f.Coeffs[0])
	if len(f.Coeffs) == 1 {
		return out
	}
	tPrev := x.Clone()
	tCur := ltilde(x)
	out.AddScaled(f.Coeffs[1], tCur)
	for k := 2; k < len(f.Coeffs); k++ {
		tNext := ltilde(tCur)
		tNext.Scale(2)
		tNext.Sub(tPrev)
		if f.Coeffs[k] != 0 {
			out.AddScaled(f.Coeffs[k], tNext)
		}
		tPrev, tCur = tCur, tNext
	}
	return out
}

// EvalScalar evaluates the filter's frequency response h(λ) at a scalar
// eigenvalue λ ∈ [0, 2]. Used for tests and for plotting responses.
func (f *Filter) EvalScalar(lambda float64) float64 {
	switch f.Basis {
	case Monomial:
		var s, p float64
		p = 1
		for _, c := range f.Coeffs {
			s += float64(c * p)
			p *= lambda
		}
		return s
	case Chebyshev:
		x := lambda - 1
		var s float64
		tPrev, tCur := 1.0, x
		for k, c := range f.Coeffs {
			switch k {
			case 0:
				s += c * 1
			case 1:
				s += float64(c * x)
			default:
				tNext := float64(2*x*tCur) - tPrev
				tPrev, tCur = tCur, tNext
				s += float64(c * tCur)
			}
		}
		return s
	default:
		panic("spectral: unknown basis")
	}
}

// lowPass returns the (1 − λ/2)^K monomial filter: the smoothing operator
// implicit in K rounds of GCN-style propagation. Strong at λ=0, zero at λ=2.
func lowPass(k int) *Filter {
	// (1 - λ/2)^K expanded into monomial coefficients via binomial theorem.
	coeffs := make([]float64, k+1)
	for j := 0; j <= k; j++ {
		coeffs[j] = binom(k, j) * math.Pow(-0.5, float64(j))
	}
	return &Filter{Basis: Monomial, Coeffs: coeffs}
}

// highPass returns the (λ/2)^K monomial filter: passes the high-frequency
// (heterophilous) end of the spectrum, zero at λ=0.
func highPass(k int) *Filter {
	coeffs := make([]float64, k+1)
	coeffs[k] = math.Pow(0.5, float64(k))
	return &Filter{Basis: Monomial, Coeffs: coeffs}
}

// adjacencyPower returns the h(λ) = (1−λ)^K monomial filter. On an
// operator built with self-loops this is exactly Â^K — the SGC smoothing —
// expressed as a spectral polynomial, with the self signal diluted by
// degree normalization rather than kept at constant weight.
func adjacencyPower(k int) *Filter {
	coeffs := make([]float64, k+1)
	for j := 0; j <= k; j++ {
		coeffs[j] = binom(k, j) * math.Pow(-1, float64(j))
	}
	return &Filter{Basis: Monomial, Coeffs: coeffs}
}

// laplacianPower returns the h(λ) = λ^K monomial filter — the complementary
// high-pass to adjacencyPower, amplifying neighbor disagreement.
func laplacianPower(k int) *Filter {
	coeffs := make([]float64, k+1)
	coeffs[k] = 1
	return &Filter{Basis: Monomial, Coeffs: coeffs}
}

// identity returns the all-pass filter h(λ) = 1.
func identity() *Filter {
	return &Filter{Basis: Monomial, Coeffs: []float64{1}}
}

// pprFilter returns the degree-K truncated personalized-PageRank filter
// h(λ) = α Σ_{k≤K} (1−α)^k (1−λ)^k — the APPNP propagation expressed as a
// spectral polynomial (here 1−λ is the symmetric adjacency eigenvalue).
func pprFilter(alpha float64, k int) *Filter {
	// Σ_j c_j λ^j where the (1-λ)^k terms are expanded.
	coeffs := make([]float64, k+1)
	for kk := 0; kk <= k; kk++ {
		w := alpha * math.Pow(1-alpha, float64(kk))
		for j := 0; j <= kk; j++ {
			coeffs[j] += float64(w * binom(kk, j) * math.Pow(-1, float64(j)))
		}
	}
	return &Filter{Basis: Monomial, Coeffs: coeffs}
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	res := 1.0
	for i := 0; i < k; i++ {
		res = res * float64(n-i) / float64(i+1)
	}
	return res
}
