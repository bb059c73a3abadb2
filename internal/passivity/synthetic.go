package passivity

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/rational"
)

// SyntheticOptions configures SyntheticModel, the randomized pole-residue
// generator behind the characterization tests and the check benchmarks. It
// produces models whose passivity properties are controlled by
// construction, independent of any fitting stage.
type SyntheticOptions struct {
	// Ports is the port count P (default 2).
	Ports int
	// Poles is the model order n counting both members of each conjugate
	// pair (default 20).
	Poles int
	// Seed drives the deterministic pseudo-random construction.
	Seed int64
	// OmegaLo/OmegaHi bound the resonance placement in rad/s
	// (defaults 1 and 1e4).
	OmegaLo, OmegaHi float64
	// DSigma sets σmax(D) (default 0.9). Must stay below one for the model
	// to be asymptotically passive.
	DSigma float64
	// PeakGain caps each background pole's resonance strength ‖R‖₂/|Re p|
	// (default 0.25). Values well below 1−DSigma keep the model passive;
	// pushing PeakGain toward and beyond 1−DSigma produces the
	// near-passive and violating models of the oracle tests.
	PeakGain float64
	// NarrowBand plants a high-Q "shoulder" gadget on port 0: a resonance
	// whose residue phase is rotated so the σ peak sits several half-widths
	// OFF the pole's resonance frequency, which sits at the off-grid
	// frequency shoulderCenter·√(OmegaLo·OmegaHi). The violation band has
	// relative width ~30·shoulderRelWidth — far below a 1000-point log
	// grid's spacing — while every frequency a pole-seeded fixed sweep
	// samples (the resonance itself and its half-width neighbours) stays
	// safely below one. Background poles are confined to ports 1..P−1 so
	// the gadget block stays exactly solvable.
	NarrowBand bool
}

func (o *SyntheticOptions) defaults() {
	if o.Ports <= 0 {
		o.Ports = 2
	}
	if o.Poles <= 0 {
		o.Poles = 20
	}
	if o.OmegaLo <= 0 {
		o.OmegaLo = 1
	}
	if o.OmegaHi <= o.OmegaLo {
		o.OmegaHi = 1e4 * o.OmegaLo
	}
	if o.DSigma <= 0 {
		o.DSigma = 0.9
		if o.NarrowBand {
			// The shoulder gadget needs the background close to one for
			// its off-resonance bump to cross the limit — but it must stay
			// below the sweep's 1−5e-3 near-limit refinement guard, or the
			// fixed grid's golden-section polishing finds the band anyway.
			o.DSigma = 0.985
		}
	}
	if o.PeakGain <= 0 {
		o.PeakGain = 0.25
	}
}

// Shoulder-gadget constants: with background g = DSigma at the gadget port
// and residue term h·e^{jψ}/(1+ju), u = (ω−ωc)/γ, the |S| maximum sits at
// u* = tan(ψ/2) ≈ 5.7 half-widths off resonance, while u = 0 and u = ±1
// (exactly the frequencies a pole-seeded sweep samples) stay below one.
const (
	shoulderGain     = 0.7                 // h = ‖R‖/γ of the gadget pole
	shoulderPhase    = 160 * math.Pi / 180 // ψ, the residue phase rotation
	shoulderCenter   = 1.37                // ωc / √(OmegaLo·OmegaHi)
	shoulderRelWidth = 1e-5                // γ/ωc, the relative half-width
)

// SyntheticModel builds a random stable scattering model with controlled
// passivity structure. See SyntheticOptions for the knobs.
func SyntheticModel(opts SyntheticOptions) (*rational.Model, error) {
	opts.defaults()
	p := opts.Ports
	// The gadget occupies port 0 alone; the background poles need at least
	// one trailing port or they would pile onto the gadget port and destroy
	// its exactly analyzable SISO response.
	if opts.NarrowBand && p < 2 {
		return nil, fmt.Errorf("passivity: narrow-band gadget needs at least 2 ports, got %d", p)
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	var poles []complex128
	var residues []*mat.CMatrix

	remaining := opts.Poles
	if opts.NarrowBand {
		if remaining < 2 {
			return nil, fmt.Errorf("passivity: narrow-band gadget needs at least 2 poles, got %d", remaining)
		}
		wc := shoulderCenter * math.Sqrt(opts.OmegaLo*opts.OmegaHi)
		gamma := shoulderRelWidth * wc
		r := mat.NewCMatrix(p, p)
		r.Set(0, 0, complex(shoulderGain*gamma, 0)*cmplx.Exp(complex(0, shoulderPhase)))
		poles = append(poles, complex(-gamma, wc), complex(-gamma, -wc))
		residues = append(residues, r, conjCMatrix(r))
		remaining -= 2
	}

	// Background poles. With the gadget present they live on the trailing
	// port block so the gadget port stays an exactly analyzable SISO
	// response; otherwise they span all ports.
	bgLo := 0
	if opts.NarrowBand {
		bgLo = 1
	}
	for remaining > 0 {
		wr := logUniform(rng, opts.OmegaLo, opts.OmegaHi)
		gamma := wr * logUniform(rng, 0.02, 0.2)
		rnorm := opts.PeakGain * gamma * (0.3 + 0.7*rng.Float64())
		if remaining == 1 || bgLo >= p {
			// Odd leftover slot (or no background ports): real pole with a
			// small real residue, far below any passivity impact.
			rr := mat.NewCMatrix(p, p)
			i := bgLo % p
			rr.Set(i, i, complex(0.01*gamma, 0))
			poles = append(poles, complex(-gamma, 0))
			residues = append(residues, rr)
			remaining--
			continue
		}
		r := randomBlockResidue(rng, p, bgLo, rnorm)
		poles = append(poles, complex(-gamma, wr), complex(-gamma, -wr))
		residues = append(residues, r, conjCMatrix(r))
		remaining -= 2
	}

	d := mat.NewMatrix(p, p)
	for i := 0; i < p; i++ {
		v := opts.DSigma * (0.3 + 0.4*rng.Float64())
		if i == 0 {
			v = opts.DSigma
		}
		d.Set(i, i, v)
	}
	return rational.New(poles, residues, d)
}

// randomBlockResidue draws a dense complex residue on ports [lo, p) scaled
// to the requested spectral norm.
func randomBlockResidue(rng *rand.Rand, p, lo int, rnorm float64) *mat.CMatrix {
	r := mat.NewCMatrix(p, p)
	for i := lo; i < p; i++ {
		for j := lo; j < p; j++ {
			r.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	if s := mat.MaxSingularValue(r); s > 0 {
		r = r.Scale(complex(rnorm/s, 0))
	}
	return r
}

func conjCMatrix(m *mat.CMatrix) *mat.CMatrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] = cmplx.Conj(out.Data[i])
	}
	return out
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}
