package vecfit

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/mat"
	"repro/internal/rational"
)

// MagOptions configures Magnitude Vector Fitting.
type MagOptions struct {
	// Order is the number of poles n_w of the minimum-phase weight model
	// (the paper uses n_w = 8 for its sensitivity weight).
	Order int
	// Iterations bounds the pole relocation sweeps (default 20; the
	// u-domain fit converges more slowly than jω-axis VF).
	Iterations int
	// Weights optionally weights the squared-magnitude samples.
	Weights []float64
}

// MagReport captures diagnostics of a magnitude fit.
type MagReport struct {
	// RMSRelErr is the relative RMS error of |Ξ̃(jω_k)| against the data.
	RMSRelErr float64
	// MaxRelErr is the worst-case relative magnitude error.
	MaxRelErr float64
	// Repaired counts poles/zeros that had to be reflected off the
	// negative-real u-axis (fit artifacts from data dipping toward zero).
	Repaired int
	// Fit is the underlying u-domain fit report.
	Fit *Report
}

// ErrMagnitudeData reports unusable magnitude samples.
var ErrMagnitudeData = errors.New("vecfit: magnitude data must be positive")

// FitMagnitude fits a stable minimum-phase rational model Ξ̃(s) such that
// |Ξ̃(jω_k)|² ≈ xi[k]², following the Magnitude Vector Fitting approach
// (paper eq. 17): the even spectrum G(s) = Ξ̃(s)Ξ̃(−s) is a rational
// function of u = s², so a standard VF run in the u-domain on samples
// (u_k = −ω_k², xi_k²) identifies poles a_m = q_m² and, via the companion
// eigenproblem, zeros ζ_m = z_m². The minimum-phase spectral factor keeps
// the left-half-plane square roots: Ξ̃(s) = √d·Π(s+z_m)/Π(s+q_m).
func FitMagnitude(omega []float64, xi []float64, opts MagOptions) (*rational.Model, *MagReport, error) {
	k := len(omega)
	if k == 0 || len(xi) != k {
		return nil, nil, ErrBadInput
	}
	if opts.Order <= 0 {
		return nil, nil, fmt.Errorf("vecfit: magnitude fit order must be positive, got %d", opts.Order)
	}
	// Normalize frequencies to the geometric band center: PDN sensitivity
	// data spans many decades (kHz–GHz), i.e. >20 decades in u = s², which
	// would wreck the least-squares conditioning. The fit runs on
	// ω' = ω/ωs; poles and zeros are scaled back by ωs at assembly (the
	// gain of a biproper factor is scale-invariant).
	loRaw, hiRaw := omegaRange(omega)
	ws := math.Sqrt(loRaw * hiRaw)
	points := make([]complex128, k)
	data := make([]complex128, k)
	maxF := 0.0
	for i := range omega {
		if xi[i] <= 0 {
			return nil, nil, ErrMagnitudeData
		}
		wn := omega[i] / ws
		points[i] = complex(-wn*wn, 0)
		f := xi[i] * xi[i]
		data[i] = complex(f, 0)
		if f > maxF {
			maxF = f
		}
	}
	iters := opts.Iterations
	if iters <= 0 {
		iters = 20
	}
	// Default to inverse-magnitude (relative-error) weighting: magnitude
	// data lives on a dB scale, and the valleys matter as much as the
	// plateaus for the sensitivity weight.
	weights := opts.Weights
	if weights == nil {
		weights = make([]float64, k)
		for i := range weights {
			weights[i] = 1 / real(data[i])
		}
	}
	lo, hi := loRaw/ws, hiRaw/ws
	copts := Options{
		NumPoles:   opts.Order,
		Iterations: iters,
		Weights:    weights,
		InitPoles:  InitialPolesRealLog(lo*lo, hi*hi, opts.Order),
		FlipMode:   FlipOffNegReal,
	}
	uPoles, cMat, dVec, fitRep, err := fitCore(points, [][]complex128{data}, copts)
	if err != nil {
		return nil, nil, fmt.Errorf("vecfit: magnitude u-domain fit: %w", err)
	}
	c := cMat[0]
	d := dVec[0]
	repaired := 0
	n := len(uPoles)

	// Two factorization branches depending on the relative degree of the
	// fitted spectrum G(u) = d + Σ r_m/(u−a_m):
	//
	//   biproper (d > 0):        Ξ̃ has n zeros; gain = √d; zeros of G from
	//                            the companion eigenproblem.
	//   strictly proper (d ≈ 0): Ξ̃ has n−1 zeros and relative degree 1;
	//                            G ~ (Σr)/u as u→∞ with Σr = −gain², and
	//                            the n−1 finite zeros are the roots of the
	//                            numerator polynomial Σ_m r_m·Π_{l≠m}(u−a_l).
	var uZeros []complex128
	var gain float64
	if d > 1e-9*maxF {
		a1, b1 := rational.BasisFromPoles(uPoles)
		zm := a1.Clone()
		for i := 0; i < n; i++ {
			if b1[i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				zm.Set(i, j, zm.At(i, j)-b1[i]*c[j]/d)
			}
		}
		ev, err := mat.EigenValues(zm)
		if err != nil {
			return nil, nil, fmt.Errorf("vecfit: magnitude zero extraction: %w", err)
		}
		uZeros = ev
		gain = math.Sqrt(d)
	} else {
		// Refit the residues without a constant term so the strictly
		// proper structure is exact, then factor the numerator.
		if d != 0 {
			c2, _, err := residueStep(points, uPoles, [][]complex128{data}, weights, true, true)
			if err != nil {
				return nil, nil, fmt.Errorf("vecfit: strictly-proper refit: %w", err)
			}
			c = c2[0]
		}
		residues := coordsToResidues(uPoles, c)
		var sumR complex128
		for _, r := range residues {
			sumR += r
		}
		if real(sumR) >= 0 {
			return nil, nil, fmt.Errorf("vecfit: spectrum leading coefficient %v not negative; cannot factor", sumR)
		}
		gain = math.Sqrt(-real(sumR))
		numCoef := numeratorPoly(uPoles, residues)
		ev, err := polyRoots(numCoef)
		if err != nil {
			return nil, nil, fmt.Errorf("vecfit: numerator roots: %w", err)
		}
		uZeros = ev
	}
	uZeros, _, err = rational.SortPairs(uZeros, 1e-8)
	if err != nil {
		return nil, nil, fmt.Errorf("vecfit: magnitude zero pairing: %w", err)
	}

	sPoles, rp := sqrtToLHP(uPoles)
	repaired += rp
	sZeros, rz := sqrtToLHP(uZeros)
	repaired += rz
	// Undo the frequency normalization. A biproper factor's gain is scale
	// invariant; a relative-degree-1 factor picks up one power of ws.
	for i := range sPoles {
		sPoles[i] *= complex(ws, 0)
	}
	for i := range sZeros {
		sZeros[i] *= complex(ws, 0)
	}
	if len(sZeros) < len(sPoles) {
		gain *= math.Pow(ws, float64(len(sPoles)-len(sZeros)))
	}

	model, err := rational.FromZPK(sZeros, sPoles, gain)
	if err != nil {
		return nil, nil, fmt.Errorf("vecfit: spectral factor assembly: %w", err)
	}

	rep := &MagReport{Repaired: repaired, Fit: fitRep}
	var sum float64
	for i, w := range omega {
		g := cmplx.Abs(model.EvalEntry(0, 0, w))
		rel := math.Abs(g-xi[i]) / xi[i]
		sum += rel * rel
		if rel > rep.MaxRelErr {
			rep.MaxRelErr = rel
		}
	}
	rep.RMSRelErr = math.Sqrt(sum / float64(k))
	return model, rep, nil
}

// coordsToResidues converts a residue coordinate vector (the [Re, Im]
// pair-slot convention of rational.Model) back into per-pole complex
// residues aligned with the pole list.
func coordsToResidues(poles []complex128, c []float64) []complex128 {
	out := make([]complex128, len(poles))
	for k := 0; k < len(poles); {
		if imag(poles[k]) == 0 {
			out[k] = complex(c[k], 0)
			k++
			continue
		}
		out[k] = complex(c[k], c[k+1])
		out[k+1] = complex(c[k], -c[k+1])
		k += 2
	}
	return out
}

// numeratorPoly expands N(u) = Σ_m r_m·Π_{l≠m}(u−a_l) into ascending real
// coefficients (degree n−1). Conjugate-closed poles/residues guarantee the
// imaginary parts cancel.
func numeratorPoly(poles, residues []complex128) []float64 {
	n := len(poles)
	acc := make([]complex128, n) // degree n−1 ⇒ n coefficients
	term := make([]complex128, 0, n)
	for m := 0; m < n; m++ {
		// Build Π_{l≠m}(u − a_l) incrementally.
		term = term[:1]
		term[0] = 1
		for l := 0; l < n; l++ {
			if l == m {
				continue
			}
			term = polyMulLinear(term, -poles[l])
		}
		for i, t := range term {
			acc[i] += residues[m] * t
		}
	}
	out := make([]float64, n)
	for i, z := range acc {
		out[i] = real(z)
	}
	return out
}

// polyMulLinear multiplies the ascending-coefficient polynomial p by
// (u + c0), growing it by one degree.
func polyMulLinear(p []complex128, c0 complex128) []complex128 {
	out := make([]complex128, len(p)+1)
	for i, v := range p {
		out[i] += v * c0
		out[i+1] += v
	}
	return out
}

// polyRoots returns the roots of a real polynomial with ascending
// coefficients via the companion-matrix eigenproblem.
func polyRoots(coef []float64) ([]complex128, error) {
	// Trim trailing (leading-degree) zeros.
	deg := len(coef) - 1
	for deg > 0 && coef[deg] == 0 {
		deg--
	}
	if deg <= 0 {
		return nil, nil
	}
	comp := mat.NewMatrix(deg, deg)
	lead := coef[deg]
	for i := 1; i < deg; i++ {
		comp.Set(i, i-1, 1)
	}
	for i := 0; i < deg; i++ {
		comp.Set(i, deg-1, -coef[i]/lead)
	}
	return mat.EigenValues(comp)
}

// sqrtToLHP maps u-domain roots ζ = z² to left-half-plane s-domain roots
// −z with Re(z) ≥ 0, preserving conjugate pairing. Roots on the closed
// negative real u-axis cannot be split into a real spectral factor; those
// are repaired by substituting the magnitude-equivalent real root √|ζ|
// (returned count reports how many).
func sqrtToLHP(uRoots []complex128) ([]complex128, int) {
	out := make([]complex128, 0, len(uRoots))
	repaired := 0
	for i := 0; i < len(uRoots); {
		r := uRoots[i]
		if imag(r) == 0 {
			v := real(r)
			if v < 0 {
				// Fit artifact: |Ξ|² should not vanish on the data axis.
				repaired++
				v = -v
			}
			out = append(out, complex(-math.Sqrt(v), 0))
			i++
			continue
		}
		z := cmplx.Sqrt(r) // principal: Re ≥ 0
		if real(z) == 0 {
			z += complex(1e-12*cmplx.Abs(z), 0)
			repaired++
		}
		out = append(out, -z, -cmplx.Conj(z))
		i += 2
	}
	return out, repaired
}
