// Package pdn models the power-distribution-network termination setup of
// the paper: a generalized Norton load −I(s) = Y_L(s)·V(s) − J(s) attached
// to the ports of a scattering-characterized PDN, the resulting target
// impedance Z_PDN (paper eq. 2), and the first-order sensitivity Ξ(ω) of
// Z_PDN to perturbations of the scattering entries (paper eq. 5) that
// drives all weighting in the flow.
package pdn

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// Termination models a one-port load by its admittance at jω.
type Termination interface {
	// Y returns the load admittance at angular frequency ω (rad/s).
	Y(omega float64) complex128
	// Describe returns a short human-readable summary.
	Describe() string
}

// Open is an unterminated port (Y = 0).
type Open struct{}

// Y implements Termination.
func (Open) Y(float64) complex128 { return 0 }

// Describe implements Termination.
func (Open) Describe() string { return "open" }

// Short is an ideal short circuit, approximated by a large finite
// conductance so that the Norton formulation (eq. 2) stays well posed.
// The residual impedance of 10⁻⁸ Ω is negligible against PDN levels (mΩ).
type Short struct{}

// Y implements Termination.
func (Short) Y(float64) complex128 { return 1e8 }

// Describe implements Termination.
func (Short) Describe() string { return "short" }

// Resistor is a resistive load.
type Resistor struct{ R float64 }

// Y implements Termination.
func (r Resistor) Y(float64) complex128 { return complex(1/r.R, 0) }

// Describe implements Termination.
func (r Resistor) Describe() string { return fmt.Sprintf("R %.3g Ω", r.R) }

// SeriesRLC is a series R-L-C branch; the paper's decoupling capacitor
// model (C with ESR and ESL). Set L=0 for the series-RC die block model,
// or C=0 (omitted) for a series R-L (VRM) model.
type SeriesRLC struct {
	R float64 // Ω (ESR)
	L float64 // H (ESL); 0 to omit
	C float64 // F; 0 to omit (pure RL)
}

// Y implements Termination.
func (t SeriesRLC) Y(omega float64) complex128 {
	z := complex(t.R, omega*t.L)
	if t.C > 0 {
		if omega == 0 {
			return 0 // series capacitor blocks DC
		}
		z += 1 / complex(0, omega*t.C)
	}
	if z == 0 {
		return complex(math.Inf(1), 0)
	}
	return 1 / z
}

// Describe implements Termination.
func (t SeriesRLC) Describe() string {
	return fmt.Sprintf("series R=%.3g L=%.3g C=%.3g", t.R, t.L, t.C)
}

// Decap builds the vendor-style decoupling capacitor model used in §IV.
func Decap(c, esr, esl float64) SeriesRLC { return SeriesRLC{R: esr, L: esl, C: c} }

// DieRC builds the series-RC equivalent circuit of an active die block.
func DieRC(r, c float64) SeriesRLC { return SeriesRLC{R: r, C: c} }

// VRM builds a series R-L voltage-regulator output model.
func VRM(r, l float64) SeriesRLC { return SeriesRLC{R: r, L: l} }

// Load is the nominal termination network: one Termination per port plus
// the Norton current excitation vector J (paper eq. 1) and the observation
// port where Z_PDN is read.
type Load struct {
	Terms   []Termination
	J       []complex128 // current excitation per port (A)
	ObsPort int          // index i of eq. (2)
}

// Validate checks internal consistency against a port count.
func (l *Load) Validate(ports int) error {
	if len(l.Terms) != ports {
		return fmt.Errorf("pdn: %d terminations for %d ports", len(l.Terms), ports)
	}
	if len(l.J) != ports {
		return fmt.Errorf("pdn: excitation vector has %d entries for %d ports", len(l.J), ports)
	}
	if l.ObsPort < 0 || l.ObsPort >= ports {
		return fmt.Errorf("pdn: observation port %d out of range", l.ObsPort)
	}
	return nil
}

// ErrDimension reports mismatched matrix dimensions.
var ErrDimension = errors.New("pdn: dimension mismatch")

// TargetImpedanceAt computes Z_PDN(jω) from one scattering sample via
// eq. (2): Ẑ = {R0⁻¹(I−S)(I+S)⁻¹ + Y_L}⁻¹, Z_PDN = (Ẑ·J)[obs].
func TargetImpedanceAt(s *mat.CMatrix, r0, omega float64, load *Load) (complex128, error) {
	p := s.Rows
	if s.Cols != p || len(load.Terms) != p {
		return 0, ErrDimension
	}
	m, err := loadedAdmittance(s, r0, omega, load)
	if err != nil {
		return 0, err
	}
	lu, err := mat.CLUFactor(m)
	if err != nil {
		return 0, fmt.Errorf("pdn: loaded system singular at ω=%g: %w", omega, err)
	}
	x := lu.SolveVec(load.J)
	return x[load.ObsPort], nil
}

// loadedAdmittance returns Y + Y_L with Y = R0⁻¹(I−S)(I+S)⁻¹.
func loadedAdmittance(s *mat.CMatrix, r0, omega float64, load *Load) (*mat.CMatrix, error) {
	p := s.Rows
	iPlus := s.Clone()
	iMinus := s.Clone().Scale(-1)
	for i := 0; i < p; i++ {
		iPlus.Set(i, i, iPlus.At(i, i)+1)
		iMinus.Set(i, i, iMinus.At(i, i)+1)
	}
	// Y = R0⁻¹(I−S)(I+S)⁻¹: solve (I+S)ᵀXᵀ = (I−S)ᵀ, Y = Xᵀ/R0.
	lu, err := mat.CLUFactor(iPlus.T())
	if err != nil {
		return nil, fmt.Errorf("pdn: I+S singular at ω=%g: %w", omega, err)
	}
	y := lu.Solve(iMinus.T()).T().Scale(complex(1/r0, 0))
	for i := 0; i < p; i++ {
		y.Set(i, i, y.At(i, i)+load.Terms[i].Y(omega))
	}
	return y, nil
}

// TargetImpedance sweeps TargetImpedanceAt over tabulated samples.
// omega[k] are angular frequencies matching samples[k].
func TargetImpedance(omega []float64, samples []*mat.CMatrix, r0 float64, load *Load) ([]complex128, error) {
	if len(omega) != len(samples) {
		return nil, ErrDimension
	}
	if len(samples) == 0 {
		return nil, ErrDimension
	}
	if err := load.Validate(samples[0].Rows); err != nil {
		return nil, err
	}
	out := make([]complex128, len(omega))
	err := parallel.ForErr(0, len(omega), func(k int) error {
		z, err := TargetImpedanceAt(samples[k], r0, omega[k], load)
		if err != nil {
			return err
		}
		out[k] = z
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SensitivityAt computes the first-order sensitivity Ξ(ω) of Z_PDN to
// independent perturbations of all scattering entries, in closed form.
//
// With Y = R0⁻¹(I−S)(I+S)⁻¹ and Ẑ = (Y+Y_L)⁻¹ one has
// dY = −(2/R0)(I+S)⁻¹ dS (I+S)⁻¹, hence
//
//	dZ_PDN = (2/R0)·aᵀ·dS·b,  a = (I+S)⁻ᵀẐᵀe_i,  b = (I+S)⁻¹ẐJ,
//
// a rank-one gradient G = (2/R0)·a·bᵀ. For i.i.d. zero-mean element
// perturbations of deviation σ, E|ΔZ_PDN|² = σ²‖G‖_F², so the paper's Ξ of
// eq. (5) equals (up to the distribution-dependent constant absorbed in
// the weight normalization) ‖G‖_F = (2/R0)·‖a‖₂·‖b‖₂.
func SensitivityAt(s *mat.CMatrix, r0, omega float64, load *Load) (float64, error) {
	p := s.Rows
	iPlus := s.Clone()
	for i := 0; i < p; i++ {
		iPlus.Set(i, i, iPlus.At(i, i)+1)
	}
	m, err := loadedAdmittance(s, r0, omega, load)
	if err != nil {
		return 0, err
	}
	luM, err := mat.CLUFactor(m)
	if err != nil {
		return 0, fmt.Errorf("pdn: loaded system singular at ω=%g: %w", omega, err)
	}
	luMT, err := mat.CLUFactor(m.T())
	if err != nil {
		return 0, fmt.Errorf("pdn: loaded system singular at ω=%g: %w", omega, err)
	}
	luP, err := mat.CLUFactor(iPlus)
	if err != nil {
		return 0, fmt.Errorf("pdn: I+S singular at ω=%g: %w", omega, err)
	}
	luPT, err := mat.CLUFactor(iPlus.T())
	if err != nil {
		return 0, err
	}
	// b = (I+S)⁻¹·Ẑ·J.
	w := luM.SolveVec(load.J)
	b := luP.SolveVec(w)
	// a = (I+S)⁻ᵀ·Ẑᵀ·e_i.
	ei := make([]complex128, p)
	ei[load.ObsPort] = 1
	u := luMT.SolveVec(ei)
	a := luPT.SolveVec(u)
	return (2 / r0) * mat.CNorm2(a) * mat.CNorm2(b), nil
}

// Sensitivity sweeps SensitivityAt over tabulated samples.
func Sensitivity(omega []float64, samples []*mat.CMatrix, r0 float64, load *Load) ([]float64, error) {
	if len(omega) != len(samples) || len(samples) == 0 {
		return nil, ErrDimension
	}
	if err := load.Validate(samples[0].Rows); err != nil {
		return nil, err
	}
	out := make([]float64, len(omega))
	err := parallel.ForErr(0, len(omega), func(k int) error {
		xi, err := SensitivityAt(samples[k], r0, omega[k], load)
		if err != nil {
			return err
		}
		out[k] = xi
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// UniformDieExcitation builds the paper's synchronous-switching excitation:
// total current 1 A split equally over the given die ports.
func UniformDieExcitation(ports int, diePorts []int) []complex128 {
	j := make([]complex128, ports)
	if len(diePorts) == 0 {
		return j
	}
	share := complex(1/float64(len(diePorts)), 0)
	for _, p := range diePorts {
		j[p] = share
	}
	return j
}

// absOrTiny guards logarithms of impedance magnitudes.
func absOrTiny(z complex128) float64 {
	a := cmplx.Abs(z)
	if a < 1e-300 {
		return 1e-300
	}
	return a
}
