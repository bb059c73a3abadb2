package passivity

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/rational"
)

// The tests in this file validate HamiltonianFactorsLevel end to end: the
// factored diagonal-plus-low-rank pencil must materialize to exactly the
// Bruinsma–Steinbuch matrix HamiltonianMatrixLevel builds, and the
// structured determinant/solve kernels must agree with an independent dense
// complex LU on the same shifted pencil. The corpus spans ports, orders and
// levels γ on both passive and violating synthetic models — well over 100
// (model, shift) Hamiltonian instances.

// corpusCases enumerates the synthetic models the oracle tests run over.
// Gammas stay clear of singular values of D (σmax(D) defaults 0.9).
func corpusCases(t *testing.T) []corpusCase {
	t.Helper()
	var cases []corpusCase
	gammas := []float64{1, 0.97, 1.5}
	seed := int64(4200)
	for _, ports := range []int{1, 2, 3} {
		for _, poles := range []int{4, 8, 14} {
			for trial := 0; trial < 4; trial++ {
				seed++
				peak := 0.1 + 0.1*float64(trial)
				model, err := SyntheticModel(SyntheticOptions{Ports: ports, Poles: poles, Seed: seed, PeakGain: peak})
				if err != nil {
					t.Fatalf("ports=%d poles=%d seed=%d: %v", ports, poles, seed, err)
				}
				cases = append(cases, corpusCase{model: model, gamma: gammas[trial%len(gammas)]})
			}
		}
	}
	return cases
}

type corpusCase struct {
	model *rational.Model
	gamma float64
}

// TestStructuredFactorsMaterialize checks that the factored pencil
// materializes to the dense Bruinsma–Steinbuch Hamiltonian entry for entry.
func TestStructuredFactorsMaterialize(t *testing.T) {
	for _, tc := range corpusCases(t) {
		s, err := HamiltonianFactorsLevel(tc.model, tc.gamma)
		if err != nil {
			t.Fatal(err)
		}
		sys := tc.model.Realization()
		h, err := HamiltonianMatrixLevel(sys.A, sys.B, sys.C, sys.D, tc.gamma)
		if err != nil {
			t.Fatal(err)
		}
		got := s.Materialize()
		scale := 0.0
		for _, v := range h.Data {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for i := 0; i < h.Rows; i++ {
			for j := 0; j < h.Cols; j++ {
				if d := math.Abs(got.At(i, j) - h.At(i, j)); d > 1e-10*scale {
					t.Fatalf("γ=%g dim=%d: entry (%d,%d) factored %g dense %g (Δ=%g)",
						tc.gamma, h.Rows, i, j, got.At(i, j), h.At(i, j), d)
				}
			}
		}
	}
}

// TestStructuredDetOracleHamiltonian cross-validates LogDetPhase against an
// independent dense complex LU of zI − M_γ at shifts spread over the
// pencil's spectral range.
func TestStructuredDetOracleHamiltonian(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	checked := 0
	for _, tc := range corpusCases(t) {
		s, err := HamiltonianFactorsLevel(tc.model, tc.gamma)
		if err != nil {
			t.Fatal(err)
		}
		dense := s.Materialize()
		bound := s.EigenBound()
		for trial := 0; trial < 3; trial++ {
			z := complex((rng.Float64()-0.5)*bound, (rng.Float64()-0.5)*bound)
			wantPhase, wantLog, singular := denseHamLogDet(dense, z)
			if singular {
				continue
			}
			phase, logAbs, err := s.LogDetPhase(z)
			if err != nil {
				t.Fatalf("γ=%g z=%v: LogDetPhase: %v", tc.gamma, z, err)
			}
			if d := math.Abs(wrapPiTest(phase - wantPhase)); d > 1e-6 {
				t.Fatalf("γ=%g dim=%d z=%v: phase %g, dense %g (Δ=%g)", tc.gamma, s.Dim(), z, phase, wantPhase, d)
			}
			if d := math.Abs(logAbs - wantLog); d > 1e-6*(1+math.Abs(wantLog)) {
				t.Fatalf("γ=%g dim=%d z=%v: log|det| %g, dense %g", tc.gamma, s.Dim(), z, logAbs, wantLog)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("det oracle covered only %d Hamiltonian shifts", checked)
	}
}

// denseHamLogDet is an independent complex-LU log-determinant of zI − M,
// used as the oracle (no code shared with StructuredShifted or
// mat.DenseShifted's pivot bookkeeping).
func denseHamLogDet(m *mat.Matrix, z complex128) (phase, logAbs float64, singular bool) {
	n := m.Rows
	a := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = -complex(m.At(i, j), 0)
		}
		a[i*n+i] += z
	}
	for k := 0; k < n; k++ {
		p, best := k, cmplx.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(a[i*n+k]); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return 0, 0, true
		}
		if p != k {
			for j := 0; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
			phase += math.Pi
		}
		piv := a[k*n+k]
		phase += cmplx.Phase(piv)
		logAbs += math.Log(cmplx.Abs(piv))
		for i := k + 1; i < n; i++ {
			f := a[i*n+k] / piv
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= f * a[k*n+j]
			}
		}
	}
	return wrapPiTest(phase), logAbs, false
}

// wrapPiTest reduces an angle to (−π, π].
func wrapPiTest(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
