// Package rational implements matrix-valued pole-residue rational models
//
//	H(s) = Σ_m R_m/(s − p_m) + D
//
// with poles shared across all matrix entries, as produced by Vector
// Fitting. Complex poles appear in adjacent conjugate pairs so that the
// model is real (H(s̄) = H̄(s)), and the package provides the real
// block-diagonal (Gilbert) state-space realization that the passivity
// machinery perturbs.
package rational

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/mat"
	"repro/internal/statespace"
)

// Model is a matrix pole-residue rational function with common poles.
//
// Pole convention: Poles lists every pole; a complex pole p (Im p > 0) is
// immediately followed by its conjugate, and the corresponding Residues
// entries are conjugate matrices. Real poles carry real residue matrices.
type Model struct {
	Poles    []complex128
	Residues []*mat.CMatrix // one P×P residue matrix per pole
	D        *mat.Matrix    // P×P real direct-coupling term
}

// ErrBadPoleOrder indicates the pole list violates the conjugate-pair
// adjacency convention.
var ErrBadPoleOrder = errors.New("rational: complex poles must come in adjacent conjugate pairs")

// ErrInvalidModel indicates a model the kernels would misread (see
// Validate).
var ErrInvalidModel = errors.New("rational: invalid model")

// pairTol is the relative tolerance to which the members of a conjugate
// pair, and their residues, must be conjugate.
const pairTol = 1e-9

// New builds a Model and validates the pair structure.
func New(poles []complex128, residues []*mat.CMatrix, d *mat.Matrix) (*Model, error) {
	if len(poles) != len(residues) {
		return nil, fmt.Errorf("rational: %d poles but %d residue matrices", len(poles), len(residues))
	}
	p := d.Rows
	if d.Cols != p {
		return nil, fmt.Errorf("rational: D must be square, got %d×%d", d.Rows, d.Cols)
	}
	for _, r := range residues {
		if r.Rows != p || r.Cols != p {
			return nil, fmt.Errorf("rational: residue size %d×%d does not match D %d×%d", r.Rows, r.Cols, p, p)
		}
	}
	m := &Model{Poles: poles, Residues: residues, D: d}
	if err := m.validatePairs(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Model) validatePairs() error {
	for k := 0; k < len(m.Poles); {
		p := m.Poles[k]
		if imag(p) == 0 {
			k++
			continue
		}
		if k+1 >= len(m.Poles) {
			return ErrBadPoleOrder
		}
		q := m.Poles[k+1]
		if cmplx.Abs(q-cmplx.Conj(p)) > pairTol*(1+cmplx.Abs(p)) {
			return ErrBadPoleOrder
		}
		k += 2
	}
	return nil
}

// Validate rejects, with an error wrapping ErrInvalidModel, a model that
// the kernels would silently misread: a non-finite pole, residue or D
// entry; a pole with Re p ≥ 0, which no passivity check covers; a real
// pole whose residue matrix is not real; or a conjugate pole pair whose
// residue matrices are not conjugate to the pair tolerance. CVector keeps
// only the real part of a real pole's residue and only the first residue
// of a pair, so the last two would describe a different model.
func (m *Model) Validate() error {
	for _, v := range m.D.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite D entry %v", ErrInvalidModel, v)
		}
	}
	for k, p := range m.Poles {
		if cmplx.IsNaN(p) || cmplx.IsInf(p) {
			return fmt.Errorf("%w: pole %d is %v", ErrInvalidModel, k, p)
		}
		if real(p) >= 0 {
			return fmt.Errorf("%w: pole %d = %v is not stable (Re p ≥ 0)", ErrInvalidModel, k, p)
		}
		for _, r := range m.Residues[k].Data {
			if cmplx.IsNaN(r) || cmplx.IsInf(r) {
				return fmt.Errorf("%w: residue %d has entry %v", ErrInvalidModel, k, r)
			}
		}
	}
	if err := m.validatePairs(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidModel, err)
	}
	for k := 0; k < len(m.Poles); {
		r := m.Residues[k]
		if imag(m.Poles[k]) == 0 {
			for i, v := range r.Data {
				if math.Abs(imag(v)) > pairTol*(1+cmplx.Abs(v)) {
					return fmt.Errorf("%w: real pole %d has complex residue %v at (%d,%d)",
						ErrInvalidModel, k, v, i/r.Cols, i%r.Cols)
				}
			}
			k++
			continue
		}
		q := m.Residues[k+1]
		for i, v := range r.Data {
			if cmplx.Abs(q.Data[i]-cmplx.Conj(v)) > pairTol*(1+cmplx.Abs(v)) {
				return fmt.Errorf("%w: residues of conjugate poles %d and %d are not conjugate at (%d,%d)",
					ErrInvalidModel, k, k+1, i/r.Cols, i%r.Cols)
			}
		}
		k += 2
	}
	return nil
}

// Ports returns the matrix dimension P.
func (m *Model) Ports() int { return m.D.Rows }

// NumPoles returns the number of poles (counting both members of each
// conjugate pair), which equals the state dimension of the basis
// realization.
func (m *Model) NumPoles() int { return len(m.Poles) }

// Clone deep-copies the model.
func (m *Model) Clone() *Model {
	poles := make([]complex128, len(m.Poles))
	copy(poles, m.Poles)
	res := make([]*mat.CMatrix, len(m.Residues))
	for i, r := range m.Residues {
		res[i] = r.Clone()
	}
	return &Model{Poles: poles, Residues: res, D: m.D.Clone()}
}

// IsStable reports whether every pole has real part < −tol.
func (m *Model) IsStable(tol float64) bool {
	for _, p := range m.Poles {
		if real(p) >= -tol {
			return false
		}
	}
	return true
}

// EvalBasis returns the partial-fraction basis vector k̃(ω) of length
// NumPoles such that H_ij(jω) = c_ij·k̃(ω) + D_ij, where c_ij is the
// residue coordinate vector of entry (i,j) (see CVector). Real pole slots
// hold 1/(jω−p); a conjugate pair occupies two slots holding
// 2(jω−α)/Δ and −2β/Δ with p = α+jβ, Δ = (jω−α)²+β².
func (m *Model) EvalBasis(omega float64) []complex128 {
	return m.EvalBasisInto(nil, omega)
}

// EvalBasisInto is EvalBasis writing into the caller-owned buffer dst
// (grown when its capacity is insufficient, so a warmed buffer makes the
// call allocation-free). It returns the filled slice of length NumPoles.
func (m *Model) EvalBasisInto(dst []complex128, omega float64) []complex128 {
	s := complex(0, omega)
	n := len(m.Poles)
	var k []complex128
	if cap(dst) >= n {
		k = dst[:n]
	} else {
		k = make([]complex128, n)
	}
	for i := 0; i < len(m.Poles); {
		p := m.Poles[i]
		if imag(p) == 0 {
			k[i] = 1 / (s - p)
			i++
			continue
		}
		al, be := real(p), imag(p)
		d := (s - complex(al, 0)) * (s - complex(al, 0)) * complex(1, 0)
		d += complex(be*be, 0)
		k[i] = 2 * (s - complex(al, 0)) / d
		k[i+1] = complex(-2*be, 0) / d
		i += 2
	}
	return k
}

// CVector returns the real residue coordinate vector c_ij of entry (i,j)
// with respect to the basis realization: real-pole slots hold Re(R_ij);
// each conjugate pair contributes [Re(R_ij), Im(R_ij)] of its first member.
func (m *Model) CVector(i, j int) []float64 {
	c := make([]float64, len(m.Poles))
	for k := 0; k < len(m.Poles); {
		r := m.Residues[k].At(i, j)
		if imag(m.Poles[k]) == 0 {
			c[k] = real(r)
			k++
			continue
		}
		c[k] = real(r)
		c[k+1] = imag(r)
		k += 2
	}
	return c
}

// SetCVector writes the residue coordinates of entry (i,j), keeping the
// conjugate-pair symmetry of the residue matrices intact.
func (m *Model) SetCVector(i, j int, c []float64) {
	if len(c) != len(m.Poles) {
		panic("rational: SetCVector length mismatch")
	}
	for k := 0; k < len(m.Poles); {
		if imag(m.Poles[k]) == 0 {
			m.Residues[k].Set(i, j, complex(c[k], 0))
			k++
			continue
		}
		m.Residues[k].Set(i, j, complex(c[k], c[k+1]))
		m.Residues[k+1].Set(i, j, complex(c[k], -c[k+1]))
		k += 2
	}
}

// AddToCVector adds delta to the residue coordinates of entry (i,j).
func (m *Model) AddToCVector(i, j int, delta []float64) {
	c := m.CVector(i, j)
	for k := range c {
		c[k] += delta[k]
	}
	m.SetCVector(i, j, c)
}

// Eval returns H(jω) as a complex P×P matrix.
func (m *Model) Eval(omega float64) *mat.CMatrix {
	return m.EvalWithBasis(m.EvalBasis(omega))
}

// EvalWithBasis combines a precomputed partial-fraction basis vector k
// (as returned by EvalBasis) with the current residues and D. Callers that
// sample the same frequencies repeatedly while only the residues change —
// the passivity enforcement loop, which never moves poles — can cache the
// basis once per frequency and skip its recomputation.
func (m *Model) EvalWithBasis(k []complex128) *mat.CMatrix {
	return m.EvalWithBasisInto(nil, k)
}

// EvalWithBasisInto is EvalWithBasis writing into the caller-owned P×P
// buffer dst (reallocated only when too small; a warmed buffer makes the
// call allocation-free). The accumulation runs pole-major: each residue
// matrix is streamed through exactly once, contiguously, instead of being
// revisited entry-by-entry — the entry-major order touches every residue
// P² times and dominates the sweep profile at large pole counts.
func (m *Model) EvalWithBasisInto(dst *mat.CMatrix, k []complex128) *mat.CMatrix {
	if len(k) != len(m.Poles) {
		panic("rational: EvalWithBasis length mismatch")
	}
	p := m.Ports()
	if dst == nil || cap(dst.Data) < p*p {
		dst = mat.NewCMatrix(p, p)
	} else {
		dst.Rows, dst.Cols = p, p
		dst.Data = dst.Data[:p*p]
	}
	hd := dst.Data
	for e, d := range m.D.Data {
		hd[e] = complex(d, 0)
	}
	// The scalar factors are real (Re R, Im R), so the complex products
	// expand to plain multiply-adds — half the multiplies of a full
	// complex·complex product, and bitwise identical to it (the imaginary
	// part of the scalar is exactly zero).
	for n := 0; n < len(m.Poles); {
		rd := m.Residues[n].Data
		if imag(m.Poles[n]) == 0 {
			knr, kni := real(k[n]), imag(k[n])
			for e, r := range rd {
				rr := real(r)
				h := hd[e]
				hd[e] = complex(real(h)+rr*knr, imag(h)+rr*kni)
			}
			n++
			continue
		}
		knr, kni := real(k[n]), imag(k[n])
		k1r, k1i := real(k[n+1]), imag(k[n+1])
		for e, r := range rd {
			rr, ri := real(r), imag(r)
			h := hd[e]
			hd[e] = complex(real(h)+(rr*knr+ri*k1r), imag(h)+(rr*kni+ri*k1i))
		}
		n += 2
	}
	return dst
}

// EvalEntry returns H_ij(jω).
func (m *Model) EvalEntry(i, j int, omega float64) complex128 {
	k := m.EvalBasis(omega)
	c := m.CVector(i, j)
	var sum complex128
	for n := range k {
		sum += complex(c[n], 0) * k[n]
	}
	return sum + complex(m.D.At(i, j), 0)
}

// BasisRealization returns the single-input real realization (A₁, b₁) of
// the common-pole basis: A₁ is block diagonal with 1×1 blocks for real
// poles and 2×2 blocks [[α,β],[−β,α]] for conjugate pairs; b₁ holds 1 for
// real slots and [2,0] for pair slots. With c_ij = CVector(i,j):
// H_ij(s) = c_ij(sI−A₁)⁻¹b₁ + D_ij.
func (m *Model) BasisRealization() (*mat.Matrix, []float64) {
	return BasisFromPoles(m.Poles)
}

// BasisFromPoles builds the single-input real realization (A₁, b₁) of the
// partial-fraction basis for an arbitrary canonical pole list (conjugate
// pairs adjacent). It is shared by Vector Fitting, which needs the basis
// before a Model exists.
func BasisFromPoles(poles []complex128) (*mat.Matrix, []float64) {
	n := len(poles)
	a := mat.NewMatrix(n, n)
	b := make([]float64, n)
	for k := 0; k < n; {
		p := poles[k]
		if imag(p) == 0 {
			a.Set(k, k, real(p))
			b[k] = 1
			k++
			continue
		}
		al, be := real(p), imag(p)
		a.Set(k, k, al)
		a.Set(k, k+1, be)
		a.Set(k+1, k, -be)
		a.Set(k+1, k+1, al)
		b[k] = 2
		b[k+1] = 0
		k += 2
	}
	return a, b
}

// Realization returns the full MIMO realization with A = I_P ⊗ A₁,
// B = I_P ⊗ b₁, and rows of C holding the per-entry residue coordinates.
// State ordering is port-major: states n·j..n·j+n−1 belong to input j.
func (m *Model) Realization() *statespace.System {
	p := m.Ports()
	a1, b1 := m.BasisRealization()
	n := len(b1)
	a := mat.NewMatrix(n*p, n*p)
	b := mat.NewMatrix(n*p, p)
	c := mat.NewMatrix(p, n*p)
	for j := 0; j < p; j++ {
		a.SetSlice(j*n, j*n, a1)
		for k := 0; k < n; k++ {
			b.Set(j*n+k, j, b1[k])
		}
		for i := 0; i < p; i++ {
			cv := m.CVector(i, j)
			for k := 0; k < n; k++ {
				c.Set(i, j*n+k, cv[k])
			}
		}
	}
	return statespace.MustNew(a, b, c, m.D.Clone())
}
