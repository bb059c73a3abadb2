package mat

import (
	"math"
	"sort"
)

// SymEig holds the eigendecomposition of a real symmetric matrix:
// A = V·diag(Values)·Vᵀ with orthonormal V and ascending eigenvalues.
type SymEig struct {
	Values []float64
	V      *Matrix
}

// SymEigDecompose computes the eigendecomposition of a symmetric matrix
// using the cyclic Jacobi method. Only the lower triangle of a is read.
func SymEigDecompose(a *Matrix) *SymEig {
	if a.Rows != a.Cols {
		panic("mat: SymEigDecompose of non-square matrix")
	}
	n := a.Rows
	w := a.Clone()
	w.Symmetrize()
	v := Identity(n)
	const tol = 1e-14
	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		diagScale := 0.0
		for i := 0; i < n; i++ {
			diagScale += math.Abs(w.At(i, i))
			for j := i + 1; j < n; j++ {
				off += math.Abs(w.At(i, j))
			}
		}
		if off <= tol*math.Max(diagScale, 1e-300) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= tol*(math.Abs(w.At(p, p))+math.Abs(w.At(q, q)))/2 {
					continue
				}
				theta := (w.At(q, q) - w.At(p, p)) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				// Rotate rows/cols p and q of w: w ← Jᵀ w J.
				for k := 0; k < n; k++ {
					wkp := w.At(k, p)
					wkq := w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk := w.At(p, k)
					wqk := w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort ascending.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	outV := NewMatrix(n, n)
	outVals := make([]float64, n)
	for newj, oldj := range idx {
		outVals[newj] = vals[oldj]
		for i := 0; i < n; i++ {
			outV.Set(i, newj, v.At(i, oldj))
		}
	}
	return &SymEig{Values: outVals, V: outV}
}
