// Package vecfit implements weighted, relaxed Vector Fitting of tabulated
// frequency responses to common-pole rational macromodels (Gustavsen &
// Semlyen 1999; relaxed variant Gustavsen 2006; fast per-response QR
// compression per Deschrijver et al. 2008), plus Magnitude Vector Fitting
// for fitting minimum-phase weights to magnitude-only data (De Tommasi et
// al. 2008), as required by the sensitivity-weighting flow of Ubolli et al.
// (DATE 2014).
//
// Each pole-identification sweep compresses response r's least-squares
// system [W[Φ 1] W[−H_rΦ, −H_r]] to an (n+1)×(n+1) triangular block. The
// basis block W[Φ 1] is the same for every response, so a sweep factors
// it once with Householder reflectors and applies those reflectors to each
// response's 2k×(n+1) block W[−H_rΦ, −H_r], built column-major in a
// per-worker buffer; a QR of the trailing rows finishes the compression. The relaxed
// system uses the whole block, and the classical fallback (taken when the
// relaxed d̃ nearly vanishes) uses its leading n×n part with the negated
// d̃ column as right-hand side, so no response is compressed twice. The
// residue identification likewise factors W[Φ 1] once per pole set.
// Reflector j depends only on column j, so every result is bit for bit
// that of factoring each response's full system; the tests keep that
// direct formulation as the oracle.
package vecfit

import (
	"math"
	"math/cmplx"

	"repro/internal/mat"
	"repro/internal/rational"
)

// FlipMode selects how unstable basis poles are reflected back into the
// admissible region after each relocation step.
type FlipMode int

const (
	// FlipLHP reflects poles into the open left half plane (standard VF on
	// the jω axis): Re(p) ← −|Re(p)|.
	FlipLHP FlipMode = iota
	// FlipOffNegReal reflects real poles off the closed negative real axis
	// (magnitude VF in the u = s² domain, whose admissible poles are
	// anywhere except ℝ₋ where the data lives): real p < 0 ← −p.
	FlipOffNegReal
)

// basisMatrix evaluates the real-coefficient partial-fraction basis at the
// given sample points: column m holds φ_m(points[k]). Real pole slots hold
// 1/(s−p); conjugate pair slots hold 1/(s−p)+1/(s−p̄) and j/(s−p)−j/(s−p̄),
// matching the rational.Model residue coordinate convention [Re r, Im r].
func basisMatrix(points, poles []complex128) *mat.CMatrix {
	k := len(points)
	n := len(poles)
	phi := mat.NewCMatrix(k, n)
	for ki, s := range points {
		row := phi.Row(ki)
		for m := 0; m < n; {
			p := poles[m]
			if imag(p) == 0 {
				row[m] = 1 / (s - p)
				m++
				continue
			}
			d1 := 1 / (s - p)
			d2 := 1 / (s - cmplx.Conj(p))
			row[m] = d1 + d2
			row[m+1] = complex(0, 1) * (d1 - d2)
			m += 2
		}
	}
	return phi
}

// InitialPolesLog places the customary VF starting poles: complex pairs
// with imaginary parts log-spaced across [ωmin, ωmax] and real parts
// −ωi/100; if n is odd one extra real pole goes at the geometric band
// center. Frequencies are angular (rad/s). ωmin is clamped away from zero.
func InitialPolesLog(omegaMin, omegaMax float64, n int) []complex128 {
	if omegaMin <= 0 {
		omegaMin = omegaMax * 1e-6
	}
	if omegaMax <= omegaMin {
		omegaMax = omegaMin * 10
	}
	var poles []complex128
	pairs := n / 2
	if n%2 == 1 {
		center := math.Sqrt(omegaMin * omegaMax)
		poles = append(poles, complex(-center, 0))
	}
	if pairs == 1 {
		b := math.Sqrt(omegaMin * omegaMax)
		poles = append(poles, complex(-b/100, b), complex(-b/100, -b))
		return poles
	}
	for i := 0; i < pairs; i++ {
		t := float64(i) / float64(pairs-1)
		b := omegaMin * math.Pow(omegaMax/omegaMin, t)
		poles = append(poles, complex(-b/100, b), complex(-b/100, -b))
	}
	return poles
}

// InitialPolesRealLog places real poles log-spaced over [lo, hi] (both
// positive); used by magnitude VF in the u-domain where starting poles sit
// on the positive real axis, mirroring the negative-real-axis data support.
func InitialPolesRealLog(lo, hi float64, n int) []complex128 {
	if lo <= 0 {
		lo = hi * 1e-6
	}
	poles := make([]complex128, n)
	for i := 0; i < n; i++ {
		t := 0.5
		if n > 1 {
			t = float64(i) / float64(n-1)
		}
		poles[i] = complex(lo*math.Pow(hi/lo, t), 0)
	}
	return poles
}

// flipPoles reflects inadmissible poles back into the admissible region,
// preserving conjugate-pair structure. Returns the flipped list.
func flipPoles(poles []complex128, mode FlipMode) []complex128 {
	out := make([]complex128, len(poles))
	copy(out, poles)
	for i := 0; i < len(out); {
		p := out[i]
		switch mode {
		case FlipLHP:
			if real(p) > 0 {
				p = complex(-real(p), imag(p))
			}
		case FlipOffNegReal:
			if imag(p) == 0 && real(p) < 0 {
				p = -p
			}
		}
		if imag(p) == 0 {
			out[i] = p
			i++
			continue
		}
		out[i] = p
		out[i+1] = cmplx.Conj(p)
		i += 2
	}
	return out
}

// relocatePoles computes the zeros of the sigma function
// σ(s) = d̃ + c̃ᵀ(sI−A₁)⁻¹b₁ as eig(A₁ − b₁c̃ᵀ/d̃) and returns them in
// canonical pair order.
func relocatePoles(poles []complex128, cTilde []float64, dTilde float64) ([]complex128, error) {
	a1, b1 := rational.BasisFromPoles(poles)
	n := len(poles)
	m := a1.Clone()
	for i := 0; i < n; i++ {
		if b1[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			m.Set(i, j, m.At(i, j)-b1[i]*cTilde[j]/dTilde)
		}
	}
	ev, err := mat.EigenValues(m)
	if err != nil {
		return nil, err
	}
	sorted, _, err := rational.SortPairs(ev, 1e-8)
	if err != nil {
		return nil, err
	}
	return sorted, nil
}
