// Package qp solves the strictly convex quadratic programs that arise in
// passivity enforcement:
//
//	minimize   ½·xᵀHx
//	subject to F·x ≤ g
//
// with H symmetric positive definite. The primal has many variables (one
// per residue coordinate per matrix entry, P²·n) but few constraints (one
// per violated singular value), so the problem is solved through its dual,
// a nonnegative QP of dimension m = #constraints:
//
//	minimize  ½·λᵀMλ + gᵀλ   s.t. λ ≥ 0,  with  M = F·H⁻¹·Fᵀ,
//
// after which x* = −H⁻¹Fᵀλ*. Callers assemble M themselves (passivity
// enforcement does so from block-diagonal Gramians) and call SolveNNQP;
// the dense primal path SolveDense is a test oracle in qp_test.go.
package qp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// ErrIterationLimit indicates the active-set loop failed to converge.
var ErrIterationLimit = errors.New("qp: active-set iteration limit exceeded")

// ErrInfeasible indicates the primal constraints admit no solution (the
// dual is unbounded below, detected by runaway multipliers).
var ErrInfeasible = errors.New("qp: constraints are infeasible")

// SolveNNQP minimizes ½λᵀMλ + qᵀλ over λ ≥ 0 using a Lawson–Hanson-style
// active-set method. M must be symmetric positive semidefinite. Because M
// is often rank deficient in practice (more constraints than effective
// degrees of freedom), a tiny explicit Tikhonov shift ε·I is added up
// front: the dual becomes strictly convex, the active-set iteration
// provably terminates, and the induced primal feasibility error is O(ε·λ),
// far below the enforcement margins this solver serves. ctx is checked once
// per outer active-set iteration; cancellation returns ctx.Err() itself.
func SolveNNQP(ctx context.Context, m *mat.Matrix, q []float64) ([]float64, error) {
	n := m.Rows
	if m.Cols != n || len(q) != n {
		panic("qp: SolveNNQP dimension mismatch")
	}
	scale := 1.0 + m.MaxAbs()
	eps := 1e-11 * scale
	m = m.Clone()
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+eps)
	}

	lambda := make([]float64, n)
	free := make([]bool, n)
	grad := make([]float64, n)
	copy(grad, q) // gradient at λ=0 is q

	qScale := 0.0
	for _, v := range q {
		qScale += math.Abs(v)
	}
	tol := 1e-12 * (scale + qScale)

	maxOuter := 4*n + 40
	for outer := 0; outer < maxOuter; outer++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Most negative gradient among bound variables.
		best, bestVal := -1, -tol
		for i := 0; i < n; i++ {
			if !free[i] && grad[i] < bestVal {
				best, bestVal = i, grad[i]
			}
		}
		if best == -1 {
			return lambda, nil // KKT satisfied
		}
		free[best] = true

		// Inner loop: re-optimize on the free set, trimming negative
		// components until the free-set minimizer is feasible.
		for inner := 0; inner < maxOuter; inner++ {
			idx := freeIndices(free)
			cand, err := solveFreeSet(m, q, idx)
			if err != nil {
				return nil, err
			}
			if allNonNegative(cand, tol) {
				for k, i := range idx {
					lambda[i] = math.Max(cand[k], 0)
				}
				break
			}
			// An unbounded dual (infeasible primal) shows up as runaway
			// candidate magnitudes from the regularized solve.
			if mat.Norm2(cand) > 1e13*(1+qScale)/math.Max(scale, 1e-300) {
				return nil, ErrInfeasible
			}
			// Line search toward the candidate, stopping at the first
			// variable that crosses zero.
			alpha := 1.0
			for k, i := range idx {
				if cand[k] < 0 {
					den := lambda[i] - cand[k]
					if den > 0 {
						if a := lambda[i] / den; a < alpha {
							alpha = a
						}
					} else {
						alpha = 0
					}
				}
			}
			for k, i := range idx {
				lambda[i] += alpha * (cand[k] - lambda[i])
				if lambda[i] <= tol {
					lambda[i] = 0
					free[i] = false
				}
			}
			if inner == maxOuter-1 {
				return nil, ErrIterationLimit
			}
		}
		// Refresh the gradient: grad = Mλ + q.
		for i := 0; i < n; i++ {
			s := q[i]
			row := m.Row(i)
			for j, v := range row {
				if lambda[j] != 0 {
					s += v * lambda[j]
				}
			}
			grad[i] = s
		}
	}
	return nil, ErrIterationLimit
}

func freeIndices(free []bool) []int {
	var idx []int
	for i, f := range free {
		if f {
			idx = append(idx, i)
		}
	}
	return idx
}

func allNonNegative(v []float64, tol float64) bool {
	for _, x := range v {
		if x < -tol {
			return false
		}
	}
	return true
}

// solveFreeSet solves M[idx,idx]·λ = −q[idx]. The caller has already made
// M strictly positive definite, so a plain Cholesky applies (with the
// regularized fallback as a numerical backstop).
func solveFreeSet(m *mat.Matrix, q []float64, idx []int) ([]float64, error) {
	k := len(idx)
	sub := mat.NewMatrix(k, k)
	rhs := make([]float64, k)
	for a, i := range idx {
		rhs[a] = -q[i]
		for b, j := range idx {
			sub.Set(a, b, m.At(i, j))
		}
	}
	chol, _, err := mat.CholFactorRegularized(sub)
	if err != nil {
		return nil, fmt.Errorf("qp: free-set system not solvable: %w", err)
	}
	return chol.SolveVec(rhs), nil
}
