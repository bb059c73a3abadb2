package core

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/passivity"
	"repro/internal/rational"
	"repro/internal/synthpdn"
)

// testWeight builds a simple minimum-phase weight Ξ̃(s).
func testWeight(t *testing.T) *rational.Model {
	t.Helper()
	w, err := rational.FromZPK(
		[]complex128{complex(-50, 0), complex(-3, 4), complex(-3, -4)},
		[]complex128{complex(-0.5, 0), complex(-8, 15), complex(-8, -15)},
		0.7,
	)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// testModel builds a 2-port pole-residue model.
func testModel(t *testing.T) *rational.Model {
	t.Helper()
	poles := []complex128{
		complex(-2, 0),
		complex(-1, 20), complex(-1, -20),
	}
	r0 := mat.NewCMatrixFrom([][]complex128{{0.3, 0.05}, {0.05, 0.2}})
	r1 := mat.NewCMatrixFrom([][]complex128{{0.15 + 0.1i, 0.02}, {0.02, 0.01 - 0.05i}})
	r1c := r1.Clone()
	for i := range r1c.Data {
		r1c.Data[i] = cmplx.Conj(r1c.Data[i])
	}
	d := mat.NewMatrixFrom([][]float64{{0.9, 0.02}, {0.02, 0.88}})
	m, err := rational.New(poles, []*mat.CMatrix{r0, r1, r1c}, d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWeightedGramianMatchesQuadrature(t *testing.T) {
	// δc·P^Ξ,11·δcᵀ must equal the L2 norm ‖Ξ̃·δS_ij‖₂², evaluated by
	// numerical quadrature of (1/π)∫₀^∞ |Ξ̃(jω)|²·|δc·k̃(jω)|² dω.
	model := testModel(t)
	weight := testWeight(t)
	p11, err := WeightedGramian(model, weight)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(100))
	n := model.NumPoles()
	for trial := 0; trial < 3; trial++ {
		dc := make([]float64, n)
		for i := range dc {
			dc[i] = rng.NormFloat64()
		}
		// Quadratic form.
		qf := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				qf += dc[i] * p11.At(i, j) * dc[j]
			}
		}
		// Quadrature on a dense log grid (integrand decays like 1/ω²).
		const nq = 400000
		lo, hi := 1e-4, 1e7
		sum := 0.0
		prevW := lo
		prevF := integrand(model, weight, dc, lo)
		step := math.Pow(hi/lo, 1.0/float64(nq))
		for k := 1; k <= nq; k++ {
			w := lo * math.Pow(step, float64(k))
			f := integrand(model, weight, dc, w)
			sum += 0.5 * (prevF + f) * (w - prevW)
			prevW, prevF = w, f
		}
		integral := sum / math.Pi
		if math.Abs(integral-qf) > 0.02*math.Abs(qf) {
			t.Fatalf("trial %d: quadrature %v vs quadratic form %v", trial, integral, qf)
		}
	}
}

func integrand(model, weight *rational.Model, dc []float64, omega float64) float64 {
	k := model.EvalBasis(omega)
	var ds complex128
	for i := range dc {
		ds += complex(dc[i], 0) * k[i]
	}
	xi := weight.EvalEntry(0, 0, omega)
	v := cmplx.Abs(xi) * cmplx.Abs(ds)
	return v * v
}

func TestWeightedGramianSPD(t *testing.T) {
	model := testModel(t)
	weight := testWeight(t)
	p11, err := WeightedGramian(model, weight)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mat.CholFactor(p11); err != nil {
		t.Fatalf("P^Ξ,11 must be SPD: %v", err)
	}
}

func TestWeightedGramianRejectsMIMOWeight(t *testing.T) {
	model := testModel(t)
	if _, err := WeightedGramian(model, model); err == nil {
		t.Fatalf("MIMO weight accepted")
	}
}

func TestEnforceWeightedProducesPassiveModel(t *testing.T) {
	model := testModel(t) // non-passive by construction (σ crosses 1)
	chk, err := passivity.Check(model, passivity.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if chk.Passive {
		t.Fatalf("test model should violate passivity, σmax=%v", chk.MaxSigma)
	}
	weight := testWeight(t)
	rep, err := EnforceWeighted(model, weight, passivity.EnforceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passive {
		t.Fatalf("weighted enforcement failed")
	}
}

func TestEachSchemeMinimizesItsOwnNorm(t *testing.T) {
	// Weighted enforcement must produce a perturbation with weighted norm
	// ‖Ξ̃·δS‖² no larger than the standard scheme's perturbation measured
	// in the same weighted norm — and vice versa for the standard norm.
	// (The full behavioral payoff — preserved target impedance — is
	// demonstrated end-to-end by the Fig. 5 experiment.)
	mStd := richNonPassive(t)
	mW := richNonPassive(t)
	ref := richNonPassive(t)
	weight, err := rational.FromZPK(
		[]complex128{complex(-2000, 0)},
		[]complex128{complex(-2, 0)},
		0.04,
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := passivity.Enforce(mStd, passivity.EnforceOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := EnforceWeighted(mW, weight, passivity.EnforceOptions{}); err != nil {
		t.Fatal(err)
	}
	pStd, err := passivity.StandardGramian(ref)
	if err != nil {
		t.Fatal(err)
	}
	pXi, err := WeightedGramian(ref, weight)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(m *rational.Model, g *mat.Matrix) float64 {
		p := ref.Ports()
		total := 0.0
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				a := m.CVector(i, j)
				b := ref.CVector(i, j)
				d := make([]float64, len(a))
				for k := range a {
					d[k] = a[k] - b[k]
				}
				for r := 0; r < len(d); r++ {
					for c := 0; c < len(d); c++ {
						total += d[r] * g.At(r, c) * d[c]
					}
				}
			}
		}
		return total
	}
	// Allow slack: the two runs may take different iteration paths and
	// constraint sets, so exact optimality comparison is only approximate.
	if nw, ns := norm(mW, pXi), norm(mStd, pXi); nw > ns*1.10+1e-15 {
		t.Fatalf("weighted scheme has larger weighted norm: %v vs %v", nw, ns)
	}
	if ns, nw := norm(mStd, pStd), norm(mW, pStd); ns > nw*1.10+1e-15 {
		t.Fatalf("standard scheme has larger standard norm: %v vs %v", ns, nw)
	}
}

// richNonPassive builds a 2-port model with four pole groups spread over
// three decades and a mid-band passivity violation, giving the two cost
// Gramians genuinely different geometry.
func richNonPassive(t *testing.T) *rational.Model {
	t.Helper()
	poles := []complex128{
		complex(-0.4, 0),
		complex(-0.5, 3), complex(-0.5, -3),
		complex(-1, 20), complex(-1, -20),
		complex(-4, 150), complex(-4, -150),
	}
	rr := func(a, b, c, d complex128) *mat.CMatrix {
		return mat.NewCMatrixFrom([][]complex128{{a, b}, {b, d}})
	}
	r0 := rr(0.08, 0.01, 0, 0.05)
	r1 := rr(0.04+0.02i, 0.01, 0, 0.03-0.01i)
	r2 := rr(0.14+0.05i, 0.02, 0, 0.02+0.01i)
	r3 := rr(0.06-0.02i, 0.01, 0, 0.05+0.02i)
	d := mat.NewMatrixFrom([][]float64{{0.93, 0.02}, {0.02, 0.9}})
	m, err := rational.New(poles,
		[]*mat.CMatrix{r0, r1, conjC(r1), r2, conjC(r2), r3, conjC(r3)}, d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func conjC(m *mat.CMatrix) *mat.CMatrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] = cmplx.Conj(out.Data[i])
	}
	return out
}

func TestBuildWeightOnSmallPDN(t *testing.T) {
	p, err := synthpdn.Build(synthpdn.Small())
	if err != nil {
		t.Fatal(err)
	}
	freqs := make([]float64, 60)
	omega := make([]float64, len(freqs))
	for i := range freqs {
		t := float64(i) / float64(len(freqs)-1)
		freqs[i] = 1e3 * math.Pow(2e9/1e3, t)
		omega[i] = 2 * math.Pi * freqs[i]
	}
	ss, err := p.Circuit.SweepS(freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	weight, xi, err := BuildWeight(omega, ss, 50, p.NominalLoad(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(xi) != len(freqs) {
		t.Fatalf("xi length %d", len(xi))
	}
	if !weight.IsStable(0) {
		t.Fatalf("weight model unstable")
	}
	// |Ξ̃| should track the sensitivity shape: compare at band ends within
	// a generous factor (the clipped valleys are intentionally off).
	gLo := cmplx.Abs(weight.EvalEntry(0, 0, omega[0]))
	gHi := cmplx.Abs(weight.EvalEntry(0, 0, omega[len(omega)-1]))
	if gLo < gHi {
		t.Fatalf("weight should be larger at low frequency: |Ξ̃(lo)|=%v |Ξ̃(hi)|=%v", gLo, gHi)
	}
	ratioLo := gLo / xi[0]
	if ratioLo < 0.3 || ratioLo > 3 {
		t.Fatalf("weight misses the low-frequency sensitivity level: ratio %v", ratioLo)
	}
}

// TestWeightedGramianMatchesDenseOracle: the closed-form block assembly
// must reproduce the dense statespace.Series + Lyapunov oracle to ≤1e-10
// relative Frobenius error across ≥50 random (model, weight) pairs.
func TestWeightedGramianMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	worst := 0.0
	for trial := 0; trial < 60; trial++ {
		mPoles := rational.RandomStablePoles(rng, 2+rng.Intn(20))
		model, err := rational.NewScalar(mPoles, make([]complex128, len(mPoles)), 0)
		if err != nil {
			t.Fatal(err)
		}
		weight, err := rational.RandomScalarWeight(rng, 1+rng.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		fast, err := WeightedGramian(model, weight)
		if err != nil {
			t.Fatalf("trial %d: closed form: %v", trial, err)
		}
		dense, err := WeightedGramianDense(model, weight)
		if err != nil {
			t.Fatalf("trial %d: dense oracle: %v", trial, err)
		}
		var num, den float64
		for i := 0; i < dense.Rows; i++ {
			for j := 0; j < dense.Cols; j++ {
				d := fast.At(i, j) - dense.At(i, j)
				num += d * d
				v := dense.At(i, j)
				den += v * v
			}
		}
		rel := math.Sqrt(num) / math.Sqrt(den)
		if rel > worst {
			worst = rel
		}
		if rel > 1e-10 {
			t.Fatalf("trial %d: relative Frobenius error %v > 1e-10 (n=%d, nw=%d)",
				trial, rel, len(mPoles), weight.NumPoles())
		}
	}
	t.Logf("worst relative Frobenius error over 60 pairs: %.3g", worst)
}

// TestWeightedGramianTypedError: failures surface as *CascadeError with the
// underlying sentinel reachable through errors.Is.
func TestWeightedGramianTypedError(t *testing.T) {
	model, err := rational.NewScalar([]complex128{complex(0.5, 0)}, []complex128{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	weight := testWeight(t)
	_, err = WeightedGramian(model, weight)
	var ce *CascadeError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CascadeError, got %T (%v)", err, err)
	}
	if !errors.Is(err, rational.ErrUnstablePoles) {
		t.Fatalf("cause not reachable: %v", err)
	}
}
