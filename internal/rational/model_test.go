package rational

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// testModel builds a small 2-port model with one real pole and one complex
// pair.
func testModel(t *testing.T) *Model {
	t.Helper()
	poles := []complex128{
		complex(-3, 0),
		complex(-1, 8), complex(-1, -8),
	}
	r0 := mat.NewCMatrixFrom([][]complex128{{1, 0.2}, {0.2, 0.5}})
	r1 := mat.NewCMatrixFrom([][]complex128{{0.4 + 0.3i, 0.1 - 0.2i}, {0.1 - 0.2i, 0.6 + 0.1i}})
	r1c := mat.NewCMatrixFrom([][]complex128{{0.4 - 0.3i, 0.1 + 0.2i}, {0.1 + 0.2i, 0.6 - 0.1i}})
	d := mat.NewMatrixFrom([][]float64{{0.05, 0}, {0, 0.05}})
	m, err := New(poles, []*mat.CMatrix{r0, r1, r1c}, d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEvalMatchesDirectSum(t *testing.T) {
	m := testModel(t)
	for _, omega := range []float64{0, 0.5, 3, 12, 100} {
		s := complex(0, omega)
		got := m.Eval(omega)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				var want complex128
				for k, p := range m.Poles {
					want += m.Residues[k].At(i, j) / (s - p)
				}
				want += complex(m.D.At(i, j), 0)
				if cmplx.Abs(got.At(i, j)-want) > 1e-12*(1+cmplx.Abs(want)) {
					t.Fatalf("ω=%v (%d,%d): %v vs %v", omega, i, j, got.At(i, j), want)
				}
			}
		}
	}
}

func TestEvalIsRealSystem(t *testing.T) {
	// H(−jω) == conj(H(jω)) guaranteed by the pairing convention.
	m := testModel(t)
	hp := m.Eval(7.3)
	hm := m.Eval(-7.3)
	for i := range hp.Data {
		if cmplx.Abs(hm.Data[i]-cmplx.Conj(hp.Data[i])) > 1e-12 {
			t.Fatalf("conjugate symmetry violated")
		}
	}
}

func TestRealizationMatchesEval(t *testing.T) {
	m := testModel(t)
	sys := m.Realization()
	if sys.Order() != 2*3 {
		t.Fatalf("order %d want 6", sys.Order())
	}
	for _, omega := range []float64{0.1, 2, 8, 40} {
		hSS, err := sys.Eval(omega)
		if err != nil {
			t.Fatal(err)
		}
		hPR := m.Eval(omega)
		if !hSS.Equalish(hPR, 1e-9*(1+hPR.MaxAbs())) {
			t.Fatalf("ω=%v realization mismatch:\nSS %v\nPR %v", omega, hSS, hPR)
		}
	}
}

func TestCVectorRoundTrip(t *testing.T) {
	m := testModel(t)
	c01 := m.CVector(0, 1)
	m2 := m.Clone()
	m2.SetCVector(0, 1, c01)
	for k := range m.Residues {
		if cmplx.Abs(m2.Residues[k].At(0, 1)-m.Residues[k].At(0, 1)) > 1e-15 {
			t.Fatalf("CVector round trip changed residues")
		}
	}
	// Perturb and verify the conjugate partner follows.
	delta := make([]float64, len(c01))
	delta[1] = 0.1 // Re part of the complex pair residue
	delta[2] = 0.2 // Im part
	m2.AddToCVector(0, 1, delta)
	r := m2.Residues[1].At(0, 1)
	rc := m2.Residues[2].At(0, 1)
	if cmplx.Abs(rc-cmplx.Conj(r)) > 1e-15 {
		t.Fatalf("conjugate symmetry broken after AddToCVector")
	}
	if math.Abs(real(r)-real(m.Residues[1].At(0, 1))-0.1) > 1e-15 {
		t.Fatalf("Re perturbation not applied")
	}
	if math.Abs(imag(r)-imag(m.Residues[1].At(0, 1))-0.2) > 1e-15 {
		t.Fatalf("Im perturbation not applied")
	}
}

func TestEvalBasisConsistency(t *testing.T) {
	// H_ij(jω) == c_ij·k̃(ω) + D_ij for all entries.
	m := testModel(t)
	for _, omega := range []float64{0.2, 1, 8.1, 33} {
		k := m.EvalBasis(omega)
		h := m.Eval(omega)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				c := m.CVector(i, j)
				var sum complex128
				for n := range k {
					sum += complex(c[n], 0) * k[n]
				}
				sum += complex(m.D.At(i, j), 0)
				if cmplx.Abs(sum-h.At(i, j)) > 1e-12*(1+cmplx.Abs(sum)) {
					t.Fatalf("basis identity fails at ω=%v (%d,%d)", omega, i, j)
				}
			}
		}
	}
}

func TestBasisRealizationEigenvalues(t *testing.T) {
	m := testModel(t)
	a1, _ := m.BasisRealization()
	ev, err := mat.EigenValues(a1)
	if err != nil {
		t.Fatal(err)
	}
	// The eigenvalues of A₁ are exactly the poles.
	for _, p := range m.Poles {
		found := false
		for _, z := range ev {
			if cmplx.Abs(z-p) < 1e-10*(1+cmplx.Abs(p)) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("pole %v missing from eig(A1) = %v", p, ev)
		}
	}
}

func TestStability(t *testing.T) {
	m := testModel(t)
	if !m.IsStable(0) {
		t.Fatalf("model should be stable")
	}
	m.Poles[0] = complex(0.1, 0)
	if m.IsStable(0) {
		t.Fatalf("unstable pole not detected")
	}
}

func TestBadPoleOrderRejected(t *testing.T) {
	d := mat.NewMatrix(1, 1)
	r := mat.NewCMatrix(1, 1)
	// Complex pole without adjacent conjugate.
	if _, err := New([]complex128{complex(-1, 2), complex(-3, 0)}, []*mat.CMatrix{r, r.Clone()}, d); err == nil {
		t.Fatalf("expected ErrBadPoleOrder")
	}
}

func TestFromZPKKnownSystem(t *testing.T) {
	// H(s) = 2(s+1)/((s+2)(s+4)) = 2 (s+1)/(s²+6s+8)
	m, err := FromZPK([]complex128{-1}, []complex128{-2, -4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Partial fractions: r1/(s+2) + r2/(s+4); r1 = 2(−2+1)/(−2+4) = −1;
	// r2 = 2(−4+1)/(−4+2) = 3.
	for _, tc := range []struct {
		pole complex128
		res  complex128
	}{{-2, -1}, {-4, 3}} {
		found := false
		for k, p := range m.Poles {
			if cmplx.Abs(p-tc.pole) < 1e-12 {
				found = true
				if cmplx.Abs(m.Residues[k].At(0, 0)-tc.res) > 1e-12 {
					t.Fatalf("residue at %v: %v want %v", tc.pole, m.Residues[k].At(0, 0), tc.res)
				}
			}
		}
		if !found {
			t.Fatalf("pole %v missing", tc.pole)
		}
	}
	if m.D.At(0, 0) != 0 {
		t.Fatalf("strictly proper system must have D=0")
	}
}

func TestFromZPKBiproper(t *testing.T) {
	// H(s) = 3(s+1)(s+5)/((s+2)(s+4)): D = 3.
	m, err := FromZPK([]complex128{-1, -5}, []complex128{-2, -4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.D.At(0, 0)-3) > 1e-14 {
		t.Fatalf("D = %v want 3", m.D.At(0, 0))
	}
	// Spot-check value at s = j2 against the product form.
	s := complex(0, 2)
	want := 3 * (s + 1) * (s + 5) / ((s + 2) * (s + 4))
	got := m.EvalEntry(0, 0, 2)
	if cmplx.Abs(got-want) > 1e-12*(1+cmplx.Abs(want)) {
		t.Fatalf("H(j2) = %v want %v", got, want)
	}
}

func TestFromZPKComplexPairs(t *testing.T) {
	// Poles at −1±j5, zero at −0.5, gain 4.
	m, err := FromZPK([]complex128{-0.5}, []complex128{complex(-1, 5), complex(-1, -5)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.validatePairs(); err != nil {
		t.Fatal(err)
	}
	for _, omega := range []float64{0, 1, 5, 20} {
		s := complex(0, omega)
		want := 4 * (s + 0.5) / ((s - complex(-1, 5)) * (s - complex(-1, -5)))
		got := m.EvalEntry(0, 0, omega)
		if cmplx.Abs(got-want) > 1e-11*(1+cmplx.Abs(want)) {
			t.Fatalf("ω=%v: %v want %v", omega, got, want)
		}
	}
}

func TestFromZPKRepeatedPoleRejected(t *testing.T) {
	if _, err := FromZPK(nil, []complex128{-1, -1}, 1); err == nil {
		t.Fatalf("expected repeated-pole error")
	}
}

func TestSortPairsProperty(t *testing.T) {
	// Any conjugation-closed set sorts into valid pair order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var poles []complex128
		for i := 0; i < 2+rng.Intn(3); i++ {
			poles = append(poles, complex(-rng.Float64()-0.1, 0))
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			p := complex(-rng.Float64()-0.1, rng.Float64()*10+0.5)
			poles = append(poles, p, cmplx.Conj(p))
		}
		// Shuffle.
		rng.Shuffle(len(poles), func(i, j int) { poles[i], poles[j] = poles[j], poles[i] })
		sorted, _, err := SortPairs(poles, 1e-12)
		if err != nil {
			return false
		}
		if len(sorted) != len(poles) {
			return false
		}
		for k := 0; k < len(sorted); {
			if imag(sorted[k]) == 0 {
				k++
				continue
			}
			if k+1 >= len(sorted) || cmplx.Abs(sorted[k+1]-cmplx.Conj(sorted[k])) > 1e-12 {
				return false
			}
			k += 2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalWithBasisMatchesEval(t *testing.T) {
	// EvalWithBasis on a cached basis must reproduce Eval exactly, including
	// after the residues change under the fixed pole set (the enforcement
	// caching scenario).
	m := testModel(t)
	for _, omega := range []float64{0, 0.5, 3, 12, 100} {
		k := m.EvalBasis(omega)
		want := m.Eval(omega)
		got := m.EvalWithBasis(k)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("ω=%v: EvalWithBasis %v vs Eval %v", omega, got.Data[i], want.Data[i])
			}
		}
		// Perturb residues, reuse the same basis.
		pert := m.Clone()
		delta := make([]float64, pert.NumPoles())
		for d := range delta {
			delta[d] = 0.01 * float64(d+1)
		}
		pert.AddToCVector(0, 1, delta)
		want = pert.Eval(omega)
		got = pert.EvalWithBasis(k)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("ω=%v after perturbation: %v vs %v", omega, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestEvalWithBasisRejectsLengthMismatch(t *testing.T) {
	m := testModel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on basis length mismatch")
		}
	}()
	m.EvalWithBasis(make([]complex128, m.NumPoles()+1))
}
