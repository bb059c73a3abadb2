package mat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// randStructured draws a random diagonal-plus-low-rank representation with
// a mix of 1×1 and 2×2 blocks. rankDef zeroes one column pair of U/V to
// exercise rank-deficient low-rank factors.
func randStructured(rng *rand.Rand, n, p int, rankDef bool) *StructuredShifted {
	diag := make([]float64, n)
	skew := make([]float64, n)
	for k := 0; k < n; {
		if k+1 < n && rng.Float64() < 0.6 {
			al := -0.2 - 2*rng.Float64()
			be := 0.5 + 4*rng.Float64()
			diag[k], diag[k+1] = al, al
			skew[k] = be
			k += 2
			continue
		}
		diag[k] = -0.1 - 3*rng.Float64()
		k++
	}
	u := NewMatrix(n, p)
	v := NewMatrix(n, p)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			u.Set(i, j, rng.NormFloat64())
			v.Set(i, j, rng.NormFloat64())
		}
	}
	if rankDef && p > 0 {
		for i := 0; i < n; i++ {
			u.Set(i, p-1, 0)
			v.Set(i, p-1, 0)
		}
	}
	return NewStructuredShifted(diag, skew, u, v)
}

// denseLogDet computes the phase and log-magnitude of det(zI − M) by an
// independent complex LU — the oracle for the determinant-lemma path.
func denseLogDet(t *testing.T, m *Matrix, z complex128) (float64, float64) {
	t.Helper()
	n := m.Rows
	a := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = -complex(m.At(i, j), 0)
		}
		a[i*n+i] += z
	}
	phase, logAbs := 0.0, 0.0
	for k := 0; k < n; k++ {
		p, mx := k, cmplx.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if ab := cmplx.Abs(a[i*n+k]); ab > mx {
				mx, p = ab, i
			}
		}
		if mx == 0 {
			t.Fatalf("denseLogDet: singular at z=%v", z)
		}
		if p != k {
			for j := k; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
			phase += math.Pi
		}
		piv := a[k*n+k]
		phase += cmplx.Phase(piv)
		logAbs += math.Log(mx)
		for i := k + 1; i < n; i++ {
			f := a[i*n+k] / piv
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= f * a[k*n+j]
			}
		}
	}
	return wrapPi(phase), logAbs
}

func testShifts(rng *rand.Rand, bound float64) []complex128 {
	zs := []complex128{
		complex(0, 0.7*bound),
		complex(0.3*bound, -0.4*bound),
		complex(-0.5*bound, 0.1*bound),
	}
	for i := 0; i < 3; i++ {
		zs = append(zs, complex((2*rng.Float64()-1)*bound, (2*rng.Float64()-1)*bound))
	}
	return zs
}

func TestStructuredDetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(30)
		p := 1 + rng.Intn(5)
		if p > n {
			p = n
		}
		s := randStructured(rng, n, p, trial%5 == 0)
		m := s.Materialize()
		bound := s.EigenBound() + 1
		for _, z := range testShifts(rng, bound) {
			wantPhase, wantLog := denseLogDet(t, m, z)
			phase, logAbs, err := s.LogDetPhase(z)
			if err != nil {
				t.Fatalf("trial %d n=%d p=%d z=%v: LogDetPhase: %v", trial, n, p, z, err)
			}
			if d := math.Abs(wrapPi(phase - wantPhase)); d > 1e-7 {
				t.Fatalf("trial %d n=%d p=%d z=%v: phase %g vs dense %g (Δ=%g)",
					trial, n, p, z, phase, wantPhase, d)
			}
			if d := math.Abs(logAbs - wantLog); d > 1e-7*(1+math.Abs(wantLog)) {
				t.Fatalf("trial %d n=%d p=%d z=%v: log|det| %g vs dense %g",
					trial, n, p, z, logAbs, wantLog)
			}
			gotPhase, piv, err := s.DetPhasePivot(z)
			if err != nil {
				t.Fatalf("trial %d z=%v: DetPhasePivot: %v", trial, z, err)
			}
			if gotPhase != phase {
				t.Fatalf("trial %d z=%v: DetPhasePivot phase %g != LogDetPhase %g", trial, z, gotPhase, phase)
			}
			if !(piv > 0) || math.IsInf(piv, 0) {
				t.Fatalf("trial %d z=%v: bad proximity alarm %g", trial, z, piv)
			}
		}
	}
}

func TestStructuredEigenBound(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(16)
		p := 1 + rng.Intn(3)
		if p > n {
			p = n
		}
		s := randStructured(rng, n, p, false)
		m := s.Materialize()
		eigs, err := EigenValues(m)
		if err != nil {
			t.Fatalf("trial %d: EigenValues: %v", trial, err)
		}
		bound := s.EigenBound()
		for _, ev := range eigs {
			if a := cmplx.Abs(ev); a > bound*(1+1e-12) {
				t.Fatalf("trial %d: |eig|=%g exceeds EigenBound %g", trial, a, bound)
			}
		}
		// The bound must dominate the dense evaluator's norm bound never
		// being looser than the materialized matrix's own, up to the
		// triangle-inequality split.
		if dense := NewDenseShifted(m).EigenBound(); bound < dense/2-1e-12 {
			t.Fatalf("trial %d: structured bound %g implausibly small vs dense %g", trial, bound, dense)
		}
	}
}

func TestStructuredCountRectAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(16)
		p := 1 + rng.Intn(3)
		if p > n {
			p = n
		}
		s := randStructured(rng, n, p, trial%4 == 0)
		m := s.Materialize()
		bound := s.EigenBound() + 1
		rect := RectContour{
			ReLo: -bound * (0.4 + 0.5*rng.Float64()),
			ReHi: bound * (0.1 + 0.4*rng.Float64()),
			ImLo: -bound * (0.3 + 0.5*rng.Float64()),
			ImHi: bound * (0.3 + 0.5*rng.Float64()),
		}
		opts := ContourOptions{MaxNodes: 20000}
		dense := NewContourEvaluator(m)
		dc, derr := dense.CountRect(nil, rect, opts)
		structured := NewContourEvaluatorBackend(s)
		sc, serr := structured.CountRect(nil, rect, opts)
		if (derr == nil) != (serr == nil) {
			// The two proximity alarms differ, so one backend may stall where
			// the other resolves; both failing or both succeeding with equal
			// counts are the only acceptable agreements for a clean rectangle.
			// Treat a one-sided stall as acceptable only if the other side's
			// count matches the eigenvalue oracle.
			eigs, err := EigenValues(m)
			if err != nil {
				t.Fatalf("trial %d: EigenValues: %v", trial, err)
			}
			want := 0
			for _, ev := range eigs {
				if real(ev) > rect.ReLo && real(ev) < rect.ReHi && imag(ev) > rect.ImLo && imag(ev) < rect.ImHi {
					want++
				}
			}
			if derr == nil && dc != want {
				t.Fatalf("trial %d: dense count %d vs oracle %d", trial, dc, want)
			}
			if serr == nil && sc != want {
				t.Fatalf("trial %d: structured count %d vs oracle %d", trial, sc, want)
			}
			continue
		}
		if derr != nil {
			continue // both stalled: nothing to compare
		}
		if dc != sc {
			t.Fatalf("trial %d n=%d p=%d rect=%+v: dense count %d != structured %d", trial, n, p, rect, dc, sc)
		}
	}
}
