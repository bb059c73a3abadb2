package vecfit_test

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/rational"
	"repro/internal/synthpdn"
	"repro/internal/vecfit"
)

// paperFlowCase is the paper-flow fitting input: the 8-port synthpdn.Small
// scattering data on DC plus 100 log-spaced points over 1 kHz–2 GHz, and
// its clipped sensitivity Ξ with the order-8 weight Ξ̃ that BuildWeight
// fits to it.
type paperFlowCase struct {
	omega   []float64
	samples []*mat.CMatrix
	xi      []float64
	weight  *rational.Model
}

func paperFlowData(tb testing.TB, seed int64) *paperFlowCase {
	tb.Helper()
	cfg := synthpdn.Small()
	cfg.Seed = seed
	p, err := synthpdn.Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	freqs := []float64{0}
	for i := 0; i < 100; i++ {
		freqs = append(freqs, 1e3*math.Pow(2e9/1e3, float64(i)/99))
	}
	samples, err := p.Circuit.SweepS(freqs, 50)
	if err != nil {
		tb.Fatal(err)
	}
	omega := make([]float64, len(freqs))
	for i, f := range freqs {
		omega[i] = 2 * math.Pi * f
	}
	weight, xi, err := core.BuildWeight(omega, samples, 50, p.NominalLoad(), 8)
	if err != nil {
		tb.Fatal(err)
	}
	return &paperFlowCase{omega: omega, samples: samples, xi: xi, weight: weight}
}

// paperFlowOptions is the paper flow's fit: 12 poles, Ξ weights, D capped
// at 0.999.
func paperFlowOptions(c *paperFlowCase) vecfit.Options {
	return vecfit.Options{NumPoles: 12, Weights: c.xi, ConstrainD: 0.999}
}

// modelDiff returns "" when a and b are bit for bit the same model, else
// the first differing field.
func modelDiff(a, b *rational.Model) string {
	if len(a.Poles) != len(b.Poles) || a.Ports() != b.Ports() {
		return "shape"
	}
	if d := complexDiff(a.Poles, b.Poles); d != "" {
		return "poles " + d
	}
	for m := range a.Residues {
		if d := complexDiff(a.Residues[m].Data, b.Residues[m].Data); d != "" {
			return fmt.Sprintf("residue %d %s", m, d)
		}
	}
	return floatDiff(a.D.Data, b.D.Data)
}

func complexDiff(a, b []complex128) string {
	if len(a) != len(b) {
		return "length"
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return fmt.Sprintf("[%d] %v vs %v", i, a[i], b[i])
		}
	}
	return ""
}

func floatDiff(a, b []float64) string {
	if len(a) != len(b) {
		return "length"
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf("[%d] %v vs %v", i, a[i], b[i])
		}
	}
	return ""
}

func reportDiff(a, b *vecfit.Report) string {
	switch {
	case a.Iterations != b.Iterations:
		return "iterations"
	case a.DConstrained != b.DConstrained:
		return "DConstrained"
	case len(a.PoleHistory) != len(b.PoleHistory):
		return "pole history length"
	}
	for i := range a.PoleHistory {
		if d := complexDiff(a.PoleHistory[i], b.PoleHistory[i]); d != "" {
			return fmt.Sprintf("pole history %d %s", i, d)
		}
	}
	if d := complexDiff(a.FinalPoles, b.FinalPoles); d != "" {
		return "final poles " + d
	}
	if d := floatDiff(a.DTilde, b.DTilde); d != "" {
		return "DTilde " + d
	}
	return floatDiff([]float64{a.RMSErr, a.MaxAbsErr}, []float64{b.RMSErr, b.MaxAbsErr})
}

// TestFitBitwiseMatchesDirectKernels pins the fast-VF kernels (shared
// reflectors, one compression per response serving the relaxed and the
// classical system, one residue factorization per pole set) to the direct
// per-response formulation: every model, report and magnitude-fitted
// weight must agree bit for bit, with one worker and with GOMAXPROCS.
func TestFitBitwiseMatchesDirectKernels(t *testing.T) {
	type fitCase struct {
		name    string
		omega   []float64
		samples []*mat.CMatrix
		opts    vecfit.Options
	}
	var cases []fitCase
	for _, seed := range []int64{1, 2} {
		restore := vecfit.UseDirectKernels()
		c := paperFlowData(t, seed)
		restore()
		if d := modelDiff(paperFlowData(t, seed).weight, c.weight); d != "" {
			t.Fatalf("seed %d: BuildWeight Ξ̃ differs from the direct kernels: %s", seed, d)
		}
		name := func(s string) string { return fmt.Sprintf("seed%d/%s", seed, s) }
		pf := paperFlowOptions(c)
		cases = append(cases, fitCase{name("paper-flow"), c.omega, c.samples, pf})
		unweighted := pf
		unweighted.Weights, unweighted.ConstrainD = nil, 0
		cases = append(cases, fitCase{name("unweighted"), c.omega, c.samples, unweighted})
		unrelaxed := pf
		unrelaxed.Unrelaxed = true
		cases = append(cases, fitCase{name("unrelaxed"), c.omega, c.samples, unrelaxed})
		skipD := pf
		skipD.SkipD, skipD.ConstrainD = true, 0
		cases = append(cases, fitCase{name("skipD"), c.omega, c.samples, skipD})
		odd := pf
		odd.NumPoles = 11
		cases = append(cases, fitCase{name("odd-order"), c.omega, c.samples, odd})
	}
	// A normalized-frequency 2-port on which the relaxed d̃ stays clear of
	// the guard, so the relaxed solution itself is compared.
	omega, samples := normalizedTwoPort(t)
	cases = append(cases, fitCase{"normalized", omega, samples, vecfit.Options{NumPoles: 6, Iterations: 12}})

	// FitMagnitude on a strictly proper spectrum takes the branch that
	// refits the residues without a constant term.
	ref, err := rational.FromZPK([]complex128{-0.5, complex(-4, 9), complex(-4, -9)},
		[]complex128{-1, complex(-2, 6), complex(-2, -6), -20}, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	magOmega := make([]float64, 150)
	mag := make([]float64, len(magOmega))
	for i := range magOmega {
		magOmega[i] = 0.01 * math.Pow(2e4, float64(i)/float64(len(magOmega)-1))
		mag[i] = cmplx.Abs(ref.EvalEntry(0, 0, magOmega[i]))
	}
	magOpts := vecfit.MagOptions{Order: 4, Iterations: 30}
	restore := vecfit.UseDirectKernels()
	wantMag, wantMagRep, err := vecfit.FitMagnitude(magOmega, mag, magOpts)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	gotMag, gotMagRep, err := vecfit.FitMagnitude(magOmega, mag, magOpts)
	if err != nil {
		t.Fatal(err)
	}
	if gotMag.D.At(0, 0) != 0 {
		t.Fatalf("magnitude case is not strictly proper (D = %v)", gotMag.D.At(0, 0))
	}
	if d := modelDiff(gotMag, wantMag); d != "" {
		t.Fatalf("strictly proper FitMagnitude differs: %s", d)
	}
	if d := reportDiff(gotMagRep.Fit, wantMagRep.Fit); d != "" {
		t.Fatalf("strictly proper FitMagnitude report differs: %s", d)
	}

	var relaxedKept, fallbacks, clipped int
	for _, tc := range cases {
		restore := vecfit.UseDirectKernels()
		want, wantRep, err := vecfit.Fit(tc.omega, tc.samples, tc.opts)
		restore()
		if err != nil {
			t.Fatalf("%s: direct fit: %v", tc.name, err)
		}
		for _, seq := range []bool{false, true} {
			opts := tc.opts
			opts.Sequential = seq
			got, rep, err := vecfit.Fit(tc.omega, tc.samples, opts)
			if err != nil {
				t.Fatalf("%s sequential=%v: %v", tc.name, seq, err)
			}
			if d := modelDiff(got, want); d != "" {
				t.Fatalf("%s sequential=%v (GOMAXPROCS %d): model differs: %s", tc.name, seq, runtime.GOMAXPROCS(0), d)
			}
			if d := reportDiff(rep, wantRep); d != "" {
				t.Fatalf("%s sequential=%v: report differs: %s", tc.name, seq, d)
			}
		}
		if tc.opts.Unrelaxed {
			continue
		}
		for _, d := range wantRep.DTilde {
			if d == 1 {
				fallbacks++
			} else {
				relaxedKept++
			}
		}
		if wantRep.DConstrained {
			clipped++
		}
	}
	if relaxedKept == 0 || fallbacks == 0 || clipped == 0 {
		t.Fatalf("coverage: %d relaxed sweeps kept, %d classical fallbacks, %d D clips; want each > 0",
			relaxedKept, fallbacks, clipped)
	}
}

// normalizedTwoPort samples a well-conditioned 2-port, 4-pole model over
// ω ∈ [0.01, 100].
func normalizedTwoPort(t *testing.T) ([]float64, []*mat.CMatrix) {
	t.Helper()
	poles := []complex128{-0.8, complex(-0.05, 1), complex(-0.05, -1), complex(-2, 20), complex(-2, -20)}
	r0 := mat.NewCMatrixFrom([][]complex128{{0.5, 0.1}, {0.1, 0.3}})
	r1 := mat.NewCMatrixFrom([][]complex128{{0.2 + 0.1i, -0.05 + 0.02i}, {-0.05 + 0.02i, 0.15 - 0.08i}})
	r2 := mat.NewCMatrixFrom([][]complex128{{1 + 2i, 0.3 - 0.4i}, {0.3 - 0.4i, 2 + 1i}})
	conj := func(m *mat.CMatrix) *mat.CMatrix {
		c := m.Clone()
		for i, v := range c.Data {
			c.Data[i] = complex(real(v), -imag(v))
		}
		return c
	}
	d := mat.NewMatrixFrom([][]float64{{0.02, 0.005}, {0.005, 0.04}})
	ref, err := rational.New(poles, []*mat.CMatrix{r0, r1, conj(r1), r2, conj(r2)}, d)
	if err != nil {
		t.Fatal(err)
	}
	omega := make([]float64, 120)
	samples := make([]*mat.CMatrix, len(omega))
	for i := range omega {
		omega[i] = 0.01 * math.Pow(1e4, float64(i)/float64(len(omega)-1))
		samples[i] = ref.Eval(omega[i])
	}
	return omega, samples
}

// BenchmarkFitPaperFlow times the paper flow's fit: 8 ports, 101 samples,
// 12 poles, BuildWeight's Ξ weights, D capped at 0.999.
func BenchmarkFitPaperFlow(b *testing.B) {
	c := paperFlowData(b, 1)
	opts := paperFlowOptions(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vecfit.Fit(c.omega, c.samples, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFitAllocBound bounds the bytes one paper-flow fit allocates. Shared
// reflectors and one compression per response keep it near 6 MB; the
// direct formulation (a fresh 202×27 matrix and its QR copy per response
// and system) allocated ~140 MB.
func TestFitAllocBound(t *testing.T) {
	const boundMB = 32
	c := paperFlowData(t, 1)
	opts := paperFlowOptions(c)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := vecfit.Fit(c.omega, c.samples, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("one paper-flow fit allocates %.1f MB", mb)
	if mb >= boundMB {
		t.Fatalf("one paper-flow fit allocated %.1f MB, bound %d MB", mb, boundMB)
	}
}
