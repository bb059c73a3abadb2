package mat

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzCountRect drives the contour counter with arbitrary random matrices
// and rectangle geometries and checks the two properties the certifier
// relies on: the count matches the dense eigenvalue oracle, and it is
// integer-stable under contour refinement (quadrupling the initial node
// budget must not change the answer).
func FuzzCountRect(f *testing.F) {
	f.Add(int64(42), int64(6), 0.9, 0.8, 0.7, 0.95)
	f.Add(int64(7), int64(4), 0.5, 0.5, 0.5, 0.5)
	f.Add(int64(1404), int64(8), 0.99, 0.2, 0.35, 0.6)
	f.Add(int64(-3), int64(5), 0.1, 0.9, 0.85, 0.15)
	f.Fuzz(func(t *testing.T, seed, dim int64, fReLo, fReHi, fImLo, fImHi float64) {
		n := 3 + int(((dim%6)+6)%6) // 3..8
		for _, v := range []float64{fReLo, fReHi, fImLo, fImHi} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite rectangle fraction")
			}
		}
		frac := func(v float64) float64 { return math.Abs(v) - math.Floor(math.Abs(v)) }

		rng := rand.New(rand.NewSource(seed))
		m := NewMatrix(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				m.Set(r, c, 2*(rng.Float64()-0.5))
			}
		}
		eigs, err := EigenValues(m)
		if err != nil {
			t.Skip("dense oracle did not converge")
		}
		ev := NewContourEvaluator(m)
		bound := ev.EigenBound()
		rc := RectContour{
			ReLo: -bound * frac(fReLo), ReHi: bound * frac(fReHi),
			ImLo: -bound * frac(fImLo), ImHi: bound * frac(fImHi),
		}
		if rc.ReHi-rc.ReLo < 1e-3 || rc.ImHi-rc.ImLo < 1e-3 {
			t.Skip("degenerate rectangle")
		}
		if tooClose(eigs, rc, 1e-6*bound) {
			t.Skip("eigenvalue on the contour")
		}
		want := 0
		for _, e := range eigs {
			if real(e) > rc.ReLo && real(e) < rc.ReHi && imag(e) > rc.ImLo && imag(e) < rc.ImHi {
				want++
			}
		}
		got, err := ev.CountRect(nil, rc, ContourOptions{})
		if err != nil {
			// A stall on an adversarial rectangle is a legitimate refusal —
			// production callers perturb the contour and retry — but a wrong
			// count never is.
			t.Skip("counter stalled")
		}
		if got != want {
			t.Fatalf("CountRect(%+v) = %d, dense oracle says %d (eigs %v)", rc, got, want, eigs)
		}
		refined, err := ev.CountRect(nil, rc, ContourOptions{InitNodes: 32})
		if err != nil {
			t.Skip("refined counter stalled")
		}
		if refined != got {
			t.Fatalf("count not integer-stable under refinement: %d nodes→%d, rect %+v", got, refined, rc)
		}

		// Structured leg: a random diagonal-plus-low-rank matrix (larger than
		// the dense leg's, optionally with a rank-deficient correction) must
		// give the same determinant phase as the dense LU at every probe
		// point, and the same rectangle count through both backends.
		n2 := 6 + int(((seed%10)+10)%10)*2 // 6..24
		s := randStructured(rng, n2, 1+int(((dim%3)+3)%3), dim%2 == 0)
		sd := NewDenseShifted(s.Materialize())
		sb := s.EigenBound()
		for i := 0; i < 4; i++ {
			z := complex(sb*(frac(fReLo+float64(i)*0.137)-0.5), sb*(frac(fImHi+float64(i)*0.311)-0.5))
			sp, _, serr := s.DetPhasePivot(z)
			dp, _, derr := sd.DetPhasePivot(z)
			if serr != nil || derr != nil {
				continue // shift (near-)singular for one kernel: no phase to compare
			}
			if d := math.Abs(wrapPi(sp - dp)); d > 1e-6 {
				t.Fatalf("structured phase %g != dense phase %g at z=%v (Δ=%g, n=%d)", sp, dp, z, d, n2)
			}
		}
		seigs, err := EigenValues(s.Materialize())
		if err != nil {
			t.Skip("structured-leg dense oracle did not converge")
		}
		src := RectContour{
			ReLo: -sb * frac(fReHi), ReHi: sb * frac(fReLo),
			ImLo: -sb * frac(fImHi), ImHi: sb * frac(fImLo),
		}
		if src.ReHi-src.ReLo < 1e-3 || src.ImHi-src.ImLo < 1e-3 || tooClose(seigs, src, 1e-6*sb) {
			return
		}
		sGot, sErr := NewContourEvaluatorBackend(s).CountRect(nil, src, ContourOptions{})
		dGot, dErr := NewContourEvaluatorBackend(sd).CountRect(nil, src, ContourOptions{})
		if sErr != nil || dErr != nil {
			return // a stall is a legitimate refusal on either backend
		}
		if sGot != dGot {
			t.Fatalf("structured CountRect(%+v) = %d, dense backend says %d (n=%d)", src, sGot, dGot, n2)
		}
	})
}
