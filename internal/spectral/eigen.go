package spectral

import (
	"fmt"
	"math"
	"math/rand/v2"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

// JacobiEigen diagonalizes a symmetric matrix with cyclic Jacobi rotations,
// returning eigenvalues (ascending) and the matrix of column eigenvectors.
// Intended for small matrices (coarsened graphs, implicit-GNN closed forms,
// tests); cost is O(n³) per sweep.
func JacobiEigen(m *tensor.Matrix, maxSweeps int) ([]float64, *tensor.Matrix) {
	n := m.Rows
	if n != m.Cols {
		panic("spectral: JacobiEigen needs a square matrix")
	}
	a := m.Clone()
	v := tensor.New(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a.At(i, j) * a.At(i, j)
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) < 1e-15 {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := a.At(k, p), a.At(k, q)
					a.Set(k, p, c*akp-s*akq)
					a.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := a.At(p, k), a.At(q, k)
					a.Set(p, k, c*apk-s*aqk)
					a.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a.At(i, i)
	}
	// Sort eigenpairs ascending by value.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		j := i
		for j > 0 && vals[idx[j-1]] > vals[idx[j]] {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
	sortedVals := make([]float64, n)
	sortedVecs := tensor.New(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs
}

// SubspaceIteration computes the approximate top-k eigenpairs of the
// operator P (equivalently the BOTTOM-k of the Laplacian L = I − P) by
// orthogonal (block power) iteration: Q ← orth(P·Q). Returns eigenvalue
// estimates (Rayleigh quotients, descending) and the n×k matrix of
// orthonormal eigenvector estimates. O(iters · k · m) — the scalable path
// to the low-frequency eigenbasis that spectral condensation matches.
func SubspaceIteration(op *graph.Operator, k, iters int, rng *rand.Rand) ([]float64, *tensor.Matrix, error) {
	n := op.G.N
	if k < 1 || k > n {
		return nil, nil, fmt.Errorf("spectral: subspace k=%d outside [1,%d]", k, n)
	}
	if iters < 1 {
		return nil, nil, fmt.Errorf("spectral: subspace iters=%d < 1", iters)
	}
	// Oversampling: iterate with extra columns so the wanted eigenpairs
	// converge at the (larger) gap to the discarded ones — the standard
	// randomized-subspace trick.
	kk := min(n, k+5)
	q := tensor.RandNormal(n, kk, 1, rng)
	orthonormalize(q)
	for it := 0; it < iters; it++ {
		q = op.Apply(q)
		orthonormalize(q)
	}
	// Rayleigh-Ritz: diagonalize Qᵀ P Q to rotate Q into eigenvector
	// estimates and read off eigenvalues.
	pq := op.Apply(q)
	small := tensor.TMatMul(q, pq) // kk x kk, symmetric up to convergence error
	// Symmetrize against numerical drift.
	st := small.T()
	small.Add(st)
	small.Scale(0.5)
	vals, vecs := JacobiEigen(small, 100)
	rotated := tensor.MatMul(q, vecs)
	// JacobiEigen sorts ascending; keep the top k of kk, descending.
	outVals := make([]float64, k)
	outVecs := tensor.New(n, k)
	for j := 0; j < k; j++ {
		src := kk - 1 - j
		outVals[j] = vals[src]
		for i := 0; i < n; i++ {
			outVecs.Set(i, j, rotated.At(i, src))
		}
	}
	return outVals, outVecs, nil
}

// orthonormalize applies modified Gram-Schmidt to the columns of q in
// place. Columns that collapse numerically are re-randomized against a
// deterministic fallback basis.
func orthonormalize(q *tensor.Matrix) {
	n, k := q.Rows, q.Cols
	col := make([]float64, n)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			col[i] = q.At(i, j)
		}
		for p := 0; p < j; p++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += col[i] * q.At(i, p)
			}
			for i := 0; i < n; i++ {
				col[i] -= dot * q.At(i, p)
			}
		}
		norm := tensor.Norm2(col)
		if norm < 1e-12 {
			// Degenerate column: replace with a unit basis vector offset by
			// the column index to stay deterministic.
			for i := range col {
				col[i] = 0
			}
			col[(j*2654435761)%n] = 1
			norm = 1
		}
		inv := 1 / norm
		for i := 0; i < n; i++ {
			q.Set(i, j, col[i]*inv)
		}
	}
}
