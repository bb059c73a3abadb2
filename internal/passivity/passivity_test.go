package passivity

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/rational"
)

// nonPassiveSISO builds a 1-port model with a controlled violation near
// ω = 20 rad/s: a resonant pole pushes |S| slightly above one.
func nonPassiveSISO(t *testing.T, bump float64) *rational.Model {
	t.Helper()
	p := complex(-1, 20)
	r := complex(bump, 0)
	m, err := rational.NewScalar(
		[]complex128{p, cmplx.Conj(p)},
		[]complex128{r, cmplx.Conj(r)},
		0.92,
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// nonPassiveMIMO builds a 2-port model with violations in two bands.
func nonPassiveMIMO(t *testing.T) *rational.Model {
	t.Helper()
	poles := []complex128{
		complex(-1, 20), complex(-1, -20),
		complex(-3, 200), complex(-3, -200),
	}
	r1 := mat.NewCMatrixFrom([][]complex128{{0.15, 0.02}, {0.02, 0.01}})
	r1c := conj(r1)
	r2 := mat.NewCMatrixFrom([][]complex128{{0.05, 0.01}, {0.01, 0.7}})
	r2c := conj(r2)
	d := mat.NewMatrixFrom([][]float64{{0.9, 0.02}, {0.02, 0.88}})
	m, err := rational.New(poles, []*mat.CMatrix{r1, r1c, r2, r2c}, d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func conj(m *mat.CMatrix) *mat.CMatrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] = cmplx.Conj(out.Data[i])
	}
	return out
}

func TestHamiltonianCrossingsMatchUnitSigma(t *testing.T) {
	m := nonPassiveSISO(t, 0.12)
	crossings, err := HamiltonianCrossings(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(crossings) == 0 {
		t.Fatalf("expected crossings for a non-passive model")
	}
	for _, w := range crossings {
		s := m.Eval(w)
		sv := mat.MaxSingularValue(s)
		if math.Abs(sv-1) > 1e-6 {
			t.Fatalf("σ(S(j%v)) = %v, want 1 at a crossing", w, sv)
		}
	}
}

func TestHamiltonianPassiveModelNoCrossings(t *testing.T) {
	m := nonPassiveSISO(t, 0.01) // small residue: |S| stays below 1
	crossings, err := HamiltonianCrossings(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(crossings) != 0 {
		t.Fatalf("passive model reported crossings: %v", crossings)
	}
}

func TestCheckHamiltonianVsSweepAgree(t *testing.T) {
	for _, bump := range []float64{0.01, 0.12, 0.4} {
		m := nonPassiveSISO(t, bump)
		h, err := Check(m, CheckOptions{Method: MethodHamiltonian})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Check(m, CheckOptions{Method: MethodSweep, OmegaMin: 0.1, OmegaMax: 1e4, SweepPoints: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if h.Passive != s.Passive {
			t.Fatalf("bump=%v: hamiltonian passive=%v sweep passive=%v", bump, h.Passive, s.Passive)
		}
		if !h.Passive {
			if math.Abs(h.MaxSigma-s.MaxSigma) > 1e-4*(1+h.MaxSigma) {
				t.Fatalf("bump=%v: max σ %v vs %v", bump, h.MaxSigma, s.MaxSigma)
			}
			if math.Abs(h.MaxOmega-s.MaxOmega) > 0.05*h.MaxOmega {
				t.Fatalf("bump=%v: peak ω %v vs %v", bump, h.MaxOmega, s.MaxOmega)
			}
		}
	}
}

// TestCheckAutoSelectsMethod pins Auto's two speeds: the adaptive
// characterizer decides every non-passive verdict on its own samples, the
// Hamiltonian eigentest closes every passive one up to the gate, and above
// the gate the adaptive verdict stands.
func TestCheckAutoSelectsMethod(t *testing.T) {
	m := nonPassiveSISO(t, 0.12)
	rep, err := Check(m, CheckOptions{Method: MethodAuto})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passive || rep.Method != "adaptive" || rep.Samples == 0 {
		t.Fatalf("small non-passive model: passive=%v method=%s samples=%d, want a sampled adaptive violation",
			rep.Passive, rep.Method, rep.Samples)
	}
	passive, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 10, Seed: 1, PeakGain: 0.15, DSigma: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	rep, err = Check(passive, CheckOptions{Method: MethodAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passive || rep.Method != "hamiltonian" || rep.Samples == 0 {
		t.Fatalf("small passive model: passive=%v method=%s samples=%d, want a Hamiltonian close keeping the adaptive samples",
			rep.Passive, rep.Method, rep.Samples)
	}
	// 2 ports × 102 poles: N = 408 lies just past the Hamiltonian gate.
	big, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 102, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n := 2 * big.NumPoles() * big.Ports(); n <= hamiltonianMaxDim {
		t.Fatalf("test model N = %d does not exceed the gate %d", n, hamiltonianMaxDim)
	}
	rep, err = Check(big, CheckOptions{Method: MethodAuto})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != "adaptive" {
		t.Fatalf("model above the gate should use the adaptive characterizer, got %s", rep.Method)
	}
}

// TestCheckAutoMatchesHamiltonianVerdict is the oracle for the two-speed
// rule: on seeded passive, violating and narrow-band models with
// N ≤ hamiltonianMaxDim, Auto's verdict equals the Hamiltonian test's on
// every model.
func TestCheckAutoMatchesHamiltonianVerdict(t *testing.T) {
	type group struct {
		cfg   SyntheticOptions
		seeds int64
	}
	groups := []group{
		{SyntheticOptions{Ports: 2, Poles: 10, PeakGain: 0.15, DSigma: 0.85}, 30},    // passive
		{SyntheticOptions{Ports: 3, Poles: 12, PeakGain: 1.2, DSigma: 0.75}, 30},     // violating
		{SyntheticOptions{Ports: 2, Poles: 10, PeakGain: 0.4, NarrowBand: true}, 30}, // narrow band
		{SyntheticOptions{Ports: 4, Poles: 50, PeakGain: 0.2, DSigma: 0.85}, 12},     // N = 400, at the gate: mostly passive
	}
	models, passive, closed := 0, 0, 0
	for _, g := range groups {
		for seed := int64(0); seed < g.seeds; seed++ {
			cfg := g.cfg
			cfg.Seed = seed
			m, err := SyntheticModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := 2 * m.NumPoles() * m.Ports(); n > hamiltonianMaxDim {
				t.Fatalf("%+v: N = %d exceeds the gate %d", cfg, n, hamiltonianMaxDim)
			}
			ham, err := Check(m, CheckOptions{Method: MethodHamiltonian})
			if err != nil {
				t.Fatal(err)
			}
			auto, err := Check(m, CheckOptions{Method: MethodAuto})
			if err != nil {
				t.Fatal(err)
			}
			if auto.Passive != ham.Passive {
				t.Fatalf("%+v: Auto passive=%v (%s, σ %v), Hamiltonian passive=%v (σ %v)",
					cfg, auto.Passive, auto.Method, auto.MaxSigma, ham.Passive, ham.MaxSigma)
			}
			models++
			if ham.Passive {
				passive++
			}
			if !auto.Passive && auto.Method == "hamiltonian" {
				closed++
			}
		}
	}
	t.Logf("%d models: %d passive, %d violations found by sampling, %d only by the eigentest close",
		models, passive, models-passive-closed, closed)
	if models < 100 || passive == 0 || passive == models {
		t.Fatalf("population: %d models, %d passive; want ≥ 100 with both verdicts", models, passive)
	}
}

// TestCheckAutoCatchesAdaptiveFalsePass runs the false-pass repro (see
// falsepass_test.go) under Auto with the same capped refinement depth and
// no certification. The eigentest close must catch the residual band the
// capped adaptive check steps over, and Enforce under Auto must turn that
// catch into constraints and deliver a model the oracle finds passive.
func TestCheckAutoCatchesAdaptiveFalsePass(t *testing.T) {
	model, opts := falsePassModel(t)
	auto := CheckOptions{Method: MethodAuto, AdaptiveMaxStages: 6}

	plain := model.Clone()
	prep, err := Enforce(plain, *opts)
	if err != nil || !prep.Passive {
		t.Fatalf("adaptive-only enforcement: err=%v — repro conditions changed", err)
	}
	rep, err := Check(plain, auto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passive || rep.Method != "hamiltonian" {
		t.Fatalf("Auto check of the false-passing model: passive=%v method=%s, want a violation from the eigentest",
			rep.Passive, rep.Method)
	}

	enforced := model.Clone()
	aopts := *opts
	aopts.Check = auto
	erep, err := Enforce(enforced, aopts)
	if err != nil {
		t.Fatalf("Auto enforcement: %v", err)
	}
	if !erep.Passive {
		t.Fatal("Auto enforcement did not converge")
	}
	if worst, at := oracleWorstSigma(t, enforced); worst > 1+1e-9 {
		t.Fatalf("oracle finds σ=%.9f at ω=%.6g after Auto enforcement", worst, at)
	}
	t.Logf("iterations: adaptive-only %d, Auto %d (final check %s)", prep.Iterations, erep.Iterations, erep.Final.Method)
}

func TestSigmaLinearization(t *testing.T) {
	// δσ ≈ Re(uᴴ·δS·v) for small residue perturbations — the foundation of
	// the constraint rows.
	m := nonPassiveMIMO(t)
	omega := 20.0
	s := m.Eval(omega)
	svd := mat.CSVDecompose(s)
	u, v := svd.U.Col(0), svd.V.Col(0)
	ktil := m.EvalBasis(omega)

	rng := rand.New(rand.NewSource(90))
	n := m.NumPoles()
	eps := 1e-7
	for trial := 0; trial < 5; trial++ {
		pert := m.Clone()
		pred := 0.0
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				delta := make([]float64, n)
				for k := range delta {
					delta[k] = eps * rng.NormFloat64()
				}
				pert.AddToCVector(i, j, delta)
				// predicted δS_ij = δc·k̃; δσ contribution Re(conj(u_i)v_j·δS_ij)
				var ds complex128
				for k := range delta {
					ds += complex(delta[k], 0) * ktil[k]
				}
				pred += real(cmplx.Conj(u[i]) * complex(1, 0) * v[j] * ds)
			}
		}
		s2 := pert.Eval(omega)
		svd2 := mat.CSVDecompose(s2)
		got := svd2.S[0] - svd.S[0]
		if math.Abs(got-pred) > 2e-2*math.Abs(pred)+1e-12 {
			t.Fatalf("trial %d: δσ = %v predicted %v", trial, got, pred)
		}
	}
}

func TestAssembleDualMatchesDense(t *testing.T) {
	// The structured dual assembly must equal the explicit F·G⁻¹·Fᵀ.
	m := nonPassiveMIMO(t)
	chk, err := Check(m, CheckOptions{Method: MethodHamiltonian})
	if err != nil {
		t.Fatal(err)
	}
	if chk.Passive {
		t.Fatalf("test model should be non-passive")
	}
	gram, err := StandardGramian(m)
	if err != nil {
		t.Fatal(err)
	}
	chol, _, err := mat.CholFactorRegularized(gram)
	if err != nil {
		t.Fatal(err)
	}
	opts := EnforceOptions{Margin: 1e-4}
	cons, err := buildConstraints(m, chk, opts, chol)
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) == 0 {
		t.Fatalf("no constraints built")
	}
	structured := assembleDual(cons, 0)

	// Dense: F has one row per constraint, P²·n columns.
	p := m.Ports()
	n := m.NumPoles()
	f := mat.NewMatrix(len(cons), p*p*n)
	for a, c := range cons {
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				alpha := cmplx.Conj(c.u[i]) * c.v[j]
				for k := 0; k < n; k++ {
					val := real(alpha)*c.rk[k] - imag(alpha)*c.ik[k]
					f.Set(a, (i*p+j)*n+k, val)
				}
			}
		}
	}
	// H⁻¹Fᵀ block-wise with identical blocks G.
	dense := mat.NewMatrix(len(cons), len(cons))
	for a := 0; a < len(cons); a++ {
		for b := 0; b < len(cons); b++ {
			sum := 0.0
			for blk := 0; blk < p*p; blk++ {
				fa := make([]float64, n)
				fb := make([]float64, n)
				for k := 0; k < n; k++ {
					fa[k] = f.At(a, blk*n+k)
					fb[k] = f.At(b, blk*n+k)
				}
				sum += mat.Dot(fa, chol.SolveVec(fb))
			}
			dense.Set(a, b, sum)
		}
	}
	if !structured.Equalish(dense, 1e-9*(1+dense.MaxAbs())) {
		t.Fatalf("structured dual:\n%v\ndense:\n%v", structured, dense)
	}
}

func TestEnforceSISO(t *testing.T) {
	m := nonPassiveSISO(t, 0.12)
	before := sampleResponses(m)
	rep, err := Enforce(m, EnforceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passive {
		t.Fatalf("not passive after enforcement")
	}
	chk, err := Check(m, CheckOptions{Method: MethodHamiltonian})
	if err != nil {
		t.Fatal(err)
	}
	if !chk.Passive {
		t.Fatalf("hamiltonian disagrees after enforcement: max σ %v", chk.MaxSigma)
	}
	// Perturbation should be modest: responses move by less than the
	// violation magnitude order.
	after := sampleResponses(m)
	for i := range before {
		if cmplx.Abs(after[i]-before[i]) > 0.2 {
			t.Fatalf("enforcement distorted response too much: %v -> %v", before[i], after[i])
		}
	}
}

func sampleResponses(m *rational.Model) []complex128 {
	var out []complex128
	for _, w := range []float64{0.1, 1, 5, 20, 100, 1000} {
		out = append(out, m.Eval(w).At(0, 0))
	}
	return out
}

func TestEnforceMIMO(t *testing.T) {
	m := nonPassiveMIMO(t)
	chk0, err := Check(m, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if chk0.Passive {
		t.Fatalf("test model should be non-passive (σmax=%v)", chk0.MaxSigma)
	}
	rep, err := Enforce(m, EnforceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passive || rep.Iterations == 0 {
		t.Fatalf("enforcement failed: %+v", rep)
	}
	// Residues stay conjugate-symmetric.
	for k := 0; k < len(m.Poles); k += 2 {
		r := m.Residues[k].At(0, 1)
		rc := m.Residues[k+1].At(0, 1)
		if cmplx.Abs(rc-cmplx.Conj(r)) > 1e-12 {
			t.Fatalf("conjugate symmetry broken by enforcement")
		}
	}
	// Poles and D untouched.
	ref := nonPassiveMIMO(t)
	for i, p := range m.Poles {
		if p != ref.Poles[i] {
			t.Fatalf("poles moved")
		}
	}
	if !m.D.Equalish(ref.D, 0) {
		t.Fatalf("D moved")
	}
}

func TestEnforceWithSweepMethod(t *testing.T) {
	m := nonPassiveMIMO(t)
	rep, err := Enforce(m, EnforceOptions{
		Check: CheckOptions{Method: MethodSweep, OmegaMin: 0.1, OmegaMax: 1e4, SweepPoints: 1500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passive {
		t.Fatalf("sweep-based enforcement failed")
	}
	// Verify with the exact method.
	chk, err := Check(m, CheckOptions{Method: MethodHamiltonian})
	if err != nil {
		t.Fatal(err)
	}
	if !chk.Passive {
		t.Fatalf("hamiltonian still sees violations: σmax=%v at ω=%v", chk.MaxSigma, chk.MaxOmega)
	}
}

func TestEnforceRejectsAsymptoticViolation(t *testing.T) {
	m, err := rational.NewScalar(
		[]complex128{-1},
		[]complex128{0.1},
		1.05, // σ(D) > 1
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Enforce(m, EnforceOptions{}); err == nil {
		t.Fatalf("expected ErrAsymptoticViolation")
	}
}

func TestEnforceAlreadyPassiveIsNoOp(t *testing.T) {
	m := nonPassiveSISO(t, 0.01)
	ref := m.Clone()
	rep, err := Enforce(m, EnforceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passive || rep.Iterations != 0 {
		t.Fatalf("passive model should be a no-op: %+v", rep)
	}
	for k := range m.Residues {
		if !m.Residues[k].Equalish(ref.Residues[k], 0) {
			t.Fatalf("residues changed on a passive model")
		}
	}
}

func TestEnforceCustomGramianMatchesDimension(t *testing.T) {
	m := nonPassiveSISO(t, 0.12)
	bad := mat.Identity(5)
	if _, err := Enforce(m, EnforceOptions{CostGramian: bad}); err == nil {
		t.Fatalf("wrong-size Gramian accepted")
	}
	good := mat.Identity(m.NumPoles())
	rep, err := Enforce(m, EnforceOptions{CostGramian: good})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passive {
		t.Fatalf("identity-cost enforcement failed")
	}
}

func BenchmarkCheckHamiltonianSISO(b *testing.B) {
	m, err := rational.NewScalar(
		[]complex128{complex(-1, 20), complex(-1, -20)},
		[]complex128{complex(0.12, 0), complex(0.12, 0)},
		0.92,
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Check(m, CheckOptions{Method: MethodHamiltonian}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnforceMIMO2Port(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		poles := []complex128{
			complex(-1, 20), complex(-1, -20),
			complex(-3, 200), complex(-3, -200),
		}
		r1 := mat.NewCMatrixFrom([][]complex128{{0.15, 0.02}, {0.02, 0.01}})
		r2 := mat.NewCMatrixFrom([][]complex128{{0.05, 0.01}, {0.01, 0.7}})
		d := mat.NewMatrixFrom([][]float64{{0.9, 0.02}, {0.02, 0.88}})
		m, err := rational.New(poles, []*mat.CMatrix{r1, conj(r1), r2, conj(r2)}, d)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Enforce(m, EnforceOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
