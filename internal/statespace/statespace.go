// Package statespace provides real linear time-invariant state-space systems
//
//	x' = A·x + B·u,   y = C·x + D·u
//
// with the operations needed by the macromodeling flow: frequency-response
// evaluation, series (product) composition as used by the sensitivity-
// weighted Gramian of Ubolli et al. (DATE 2014, eq. 18), and controllability
// Gramians.
package statespace

import (
	"fmt"

	"repro/internal/mat"
)

// System is a real state-space system {A, B, C, D}.
type System struct {
	A *mat.Matrix // n×n
	B *mat.Matrix // n×m
	C *mat.Matrix // p×n
	D *mat.Matrix // p×m
}

// New validates dimensions and wraps the four matrices.
func New(a, b, c, d *mat.Matrix) (*System, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("statespace: A must be square, got %d×%d", a.Rows, a.Cols)
	}
	if b.Rows != n {
		return nil, fmt.Errorf("statespace: B has %d rows, want %d", b.Rows, n)
	}
	if c.Cols != n {
		return nil, fmt.Errorf("statespace: C has %d cols, want %d", c.Cols, n)
	}
	if d.Rows != c.Rows || d.Cols != b.Cols {
		return nil, fmt.Errorf("statespace: D is %d×%d, want %d×%d", d.Rows, d.Cols, c.Rows, b.Cols)
	}
	return &System{A: a, B: b, C: c, D: d}, nil
}

// MustNew is New that panics on dimension errors (for internal construction).
func MustNew(a, b, c, d *mat.Matrix) *System {
	s, err := New(a, b, c, d)
	if err != nil {
		panic(err)
	}
	return s
}

// Order returns the state dimension.
func (s *System) Order() int { return s.A.Rows }

// Inputs returns the input count.
func (s *System) Inputs() int { return s.B.Cols }

// Outputs returns the output count.
func (s *System) Outputs() int { return s.C.Rows }

// Eval returns the transfer matrix H(jω) = C(jωI−A)⁻¹B + D at angular
// frequency ω (rad/s) using a complex LU solve.
func (s *System) Eval(omega float64) (*mat.CMatrix, error) {
	n := s.Order()
	m := mat.NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, complex(-s.A.At(i, j), 0))
		}
		m.Set(i, i, m.At(i, i)+complex(0, omega))
	}
	lu, err := mat.CLUFactor(m)
	if err != nil {
		return nil, fmt.Errorf("statespace: jωI−A singular at ω=%g: %w", omega, err)
	}
	x := lu.Solve(mat.RealToComplex(s.B)) // (jωI−A)⁻¹B
	h := mat.RealToComplex(s.C).Mul(x)
	for i := 0; i < h.Rows; i++ {
		for j := 0; j < h.Cols; j++ {
			h.Set(i, j, h.At(i, j)+complex(s.D.At(i, j), 0))
		}
	}
	return h, nil
}

// Series returns the series composition G·H as a state-space system: the
// input feeds H first, whose output feeds G, so the transfer function is
// G(s)·H(s). The realization is the block form used in eq. (18) of the
// paper:
//
//	A = | A_G  B_G·C_H |   B = | B_G·D_H |   C = [C_G  D_G·C_H],  D = D_G·D_H
//	    |  0     A_H   |       |   B_H   |
//
// Note the A matrix stays quasi-upper-triangular whenever A_G and A_H are,
// which lets Gramian computations skip the Schur step.
func Series(g, h *System) (*System, error) {
	if g.Inputs() != h.Outputs() {
		return nil, fmt.Errorf("statespace: series mismatch, G has %d inputs, H has %d outputs", g.Inputs(), h.Outputs())
	}
	ng, nh := g.Order(), h.Order()
	n := ng + nh
	a := mat.NewMatrix(n, n)
	a.SetSlice(0, 0, g.A)
	a.SetSlice(0, ng, g.B.Mul(h.C))
	a.SetSlice(ng, ng, h.A)
	b := mat.NewMatrix(n, h.Inputs())
	b.SetSlice(0, 0, g.B.Mul(h.D))
	b.SetSlice(ng, 0, h.B)
	c := mat.NewMatrix(g.Outputs(), n)
	c.SetSlice(0, 0, g.C)
	c.SetSlice(0, ng, g.D.Mul(h.C))
	d := g.D.Mul(h.D)
	return New(a, b, c, d)
}

// Gramian returns the controllability Gramian P solving A·P + P·Aᵀ = −B·Bᵀ.
func (s *System) Gramian() (*mat.Matrix, error) {
	return mat.ControllabilityGramian(s.A, s.B)
}

// IsStable reports whether all eigenvalues of A have real part < −tol.
func (s *System) IsStable(tol float64) (bool, error) {
	ev, err := mat.EigenValues(s.A)
	if err != nil {
		return false, err
	}
	for _, z := range ev {
		if real(z) >= -tol {
			return false, nil
		}
	}
	return true, nil
}
