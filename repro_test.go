package repro_test

import (
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"testing"

	repro "repro"
)

// smallData caches an 8-port synthetic dataset for the API tests.
var smallData = func() *repro.SyntheticPDN {
	freqs := repro.LogFreqGrid(1e3, 2e9, 100, true)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		panic(err)
	}
	return syn
}()

func TestLogFreqGrid(t *testing.T) {
	g := repro.LogFreqGrid(1e3, 1e6, 4, true)
	want := []float64{0, 1e3, 1e4, 1e5, 1e6}
	if len(g) != len(want) {
		t.Fatalf("len %d want %d", len(g), len(want))
	}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-6*want[i] {
			t.Fatalf("grid %v want %v", g, want)
		}
	}
}

func TestSDataValidation(t *testing.T) {
	if _, err := repro.NewSData(nil, nil, 50); err == nil {
		t.Fatalf("empty data accepted")
	}
	d, err := repro.NewSData(
		[]float64{1, 2},
		[][][]complex128{
			{{0.1, 0}, {0, 0.1}},
			{{0.2, 0}, {0, 0.2}},
		}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if d.Ports() != 2 || d.Points() != 2 {
		t.Fatalf("dims wrong")
	}
	if d.At(1, 0, 0) != 0.2 {
		t.Fatalf("At wrong")
	}
	om := d.Omega()
	if math.Abs(om[1]-4*math.Pi) > 1e-12 {
		t.Fatalf("Omega conversion wrong: %v", om)
	}
}

func TestEndToEndExtractSmall(t *testing.T) {
	res, err := repro.Extract(smallData.Data, smallData.Load, repro.ExtractOptions{
		NumPoles:     10,
		VFIterations: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil || res.Weight == nil || res.Fit == nil {
		t.Fatalf("missing artifacts in result")
	}
	if !res.Model.IsStable() {
		t.Fatalf("extracted model unstable")
	}
	chk, err := repro.CheckPassivity(res.Model, repro.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !chk.Passive {
		t.Fatalf("extracted model not passive: σmax=%v", chk.MaxSigma)
	}
	// The non-passive snapshot must differ from the final model when
	// enforcement ran.
	if res.Enforcement != nil && res.Enforcement.Iterations > 0 {
		same := true
		for _, f := range []float64{1e5, 1e7, 1e9} {
			if cmplx.Abs(res.Model.EvalEntry(0, 0, f)-res.NonPassive.EvalEntry(0, 0, f)) > 1e-15 {
				same = false
			}
		}
		if same {
			t.Fatalf("enforcement reported iterations but model unchanged")
		}
	}
	// Scattering accuracy survives the flow.
	if rms := res.Model.RMSError(smallData.Data); rms > 0.05 {
		t.Fatalf("final model RMS too large: %v", rms)
	}
}

func TestExtractUnweightedBaseline(t *testing.T) {
	res, err := repro.Extract(smallData.Data, smallData.Load, repro.ExtractOptions{
		NumPoles:              10,
		VFIterations:          8,
		UnweightedFit:         true,
		UnweightedEnforcement: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != nil || res.Sensitivity != nil {
		t.Fatalf("unweighted flow should not build a weight")
	}
	chk, err := repro.CheckPassivity(res.Model, repro.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !chk.Passive {
		t.Fatalf("baseline flow must still produce a passive model")
	}
}

func TestMacromodelJSONRoundTrip(t *testing.T) {
	m, _, err := repro.Fit(smallData.Data, repro.FitOptions{NumPoles: 8, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := repro.LoadMacromodel(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ports() != m.Ports() || back.NumPoles() != m.NumPoles() || back.R0() != m.R0() {
		t.Fatalf("metadata lost in round trip")
	}
	for _, f := range []float64{0, 1e4, 1e7, 2e9} {
		a := m.EvalEntry(1, 0, f)
		b := back.EvalEntry(1, 0, f)
		if cmplx.Abs(a-b) > 1e-12*(1+cmplx.Abs(a)) {
			t.Fatalf("round trip changed response at %v: %v vs %v", f, a, b)
		}
	}
}

func TestMacromodelJSONRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"poles": [[1,2]], "residues": [], "d": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.LoadMacromodel(path); err == nil {
		t.Fatalf("inconsistent JSON accepted")
	}
}

func TestTouchstoneFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pdn.s8p")
	if err := repro.WriteTouchstone(path, smallData.Data); err != nil {
		t.Fatal(err)
	}
	back, err := repro.ReadTouchstone(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ports() != smallData.Data.Ports() || back.Points() != smallData.Data.Points() {
		t.Fatalf("round trip dims wrong")
	}
	for k := range back.S {
		if !back.S[k].Equalish(smallData.Data.S[k], 1e-9) {
			t.Fatalf("round trip data mismatch at %d", k)
		}
	}
}

func TestTargetImpedanceModelConsistency(t *testing.T) {
	// TargetImpedanceModel(model, freqs) must equal TargetImpedance on the
	// model's own sampled data.
	m, _, err := repro.Fit(smallData.Data, repro.FitOptions{NumPoles: 10, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	freqs := []float64{1e4, 1e6, 1e8, 1e9}
	zm, err := repro.TargetImpedanceModel(m, freqs, smallData.Load)
	if err != nil {
		t.Fatal(err)
	}
	sampled := m.Sample(freqs)
	zd, err := repro.TargetImpedance(sampled, smallData.Load)
	if err != nil {
		t.Fatal(err)
	}
	for i := range zm {
		if cmplx.Abs(zm[i]-zd[i]) > 1e-10*(1+cmplx.Abs(zd[i])) {
			t.Fatalf("inconsistent Z at %v: %v vs %v", freqs[i], zm[i], zd[i])
		}
	}
}

func TestSensitivityAPIs(t *testing.T) {
	xi, err := repro.Sensitivity(smallData.Data, smallData.Load)
	if err != nil {
		t.Fatal(err)
	}
	if len(xi) != smallData.Data.Points() {
		t.Fatalf("length mismatch")
	}
	for i, v := range xi {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("bad sensitivity %v at %d", v, i)
		}
	}
	w, xi2, err := repro.BuildWeight(smallData.Data, smallData.Load, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xi {
		if xi[i] != xi2[i] {
			t.Fatalf("BuildWeight returned different samples")
		}
	}
	if w.Order() != 8 {
		t.Fatalf("weight order %d want 8", w.Order())
	}
	for _, f := range []float64{1e3, 1e6, 1e9} {
		if w.Eval(f) <= 0 {
			t.Fatalf("weight must be positive")
		}
	}
}

func TestGeneratePDNPresets(t *testing.T) {
	freqs := repro.LogFreqGrid(1e4, 1e9, 10, false)
	small, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if small.Data.Ports() != 8 {
		t.Fatalf("small preset ports %d want 8", small.Data.Ports())
	}
	if len(small.Roles) != 8 {
		t.Fatalf("roles missing")
	}
	if _, err := repro.GeneratePDN(repro.PDNPreset(99), freqs, 50); err == nil {
		t.Fatalf("bad preset accepted")
	}
	// Raw data must be passive.
	for _, sv := range small.Data.MaxSingularValues() {
		if sv > 1+1e-8 {
			t.Fatalf("raw data not passive: %v", sv)
		}
	}
}

func TestEnforceStandardVsWeightedBothPassive(t *testing.T) {
	xi, err := repro.Sensitivity(smallData.Data, smallData.Load)
	if err != nil {
		t.Fatal(err)
	}
	m0, _, err := repro.Fit(smallData.Data, repro.FitOptions{
		NumPoles: 10, Iterations: 8, Weights: xi, ConstrainD: 0.999,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := repro.BuildWeight(smallData.Data, smallData.Load, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, weight := range []*repro.Weight{nil, w} {
		m := m0.Clone()
		rep, err := repro.EnforcePassivity(m, repro.EnforceOptions{
			Check:  repro.CheckOptions{Method: repro.CheckSweep, FreqMin: 500, FreqMax: 4e9},
			Weight: weight,
			ClampD: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passive {
			t.Fatalf("enforcement (weighted=%v) failed", weight != nil)
		}
	}
}

func TestFitWithRefinementImprovesLoadedAccuracy(t *testing.T) {
	freqs := repro.LogFreqGrid(1e3, 2e9, 50, true)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	model, rep, err := repro.FitWithRefinement(syn.Data, syn.Load, repro.FitOptions{
		NumPoles: 8, Iterations: 5, ConstrainD: 0.999,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !model.IsStable() {
		t.Fatal("refined model must be stable")
	}
	if len(rep.WorstRelErr) != 3 || rep.BestRound < 0 || rep.BestRound > 2 {
		t.Fatalf("bad refinement report: %+v", rep)
	}
	best := rep.WorstRelErr[rep.BestRound]
	if best > rep.WorstRelErr[0]+1e-12 {
		t.Fatalf("refined model (%v) worse than round 0 (%v)", best, rep.WorstRelErr[0])
	}
	// The reported weights must be reusable in a plain Fit call.
	if _, _, err := repro.Fit(syn.Data, repro.FitOptions{
		NumPoles: 8, Iterations: 5, Weights: rep.Weights, ConstrainD: 0.999,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFitWithRefinementRejectsBadInput(t *testing.T) {
	freqs := repro.LogFreqGrid(1e3, 2e9, 20, false)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := repro.FitWithRefinement(syn.Data, syn.Load, repro.FitOptions{}, 2); err == nil {
		t.Fatal("NumPoles 0 must fail")
	}
	badLoad := *syn.Load
	badLoad.Terms = badLoad.Terms[:2]
	if _, _, err := repro.FitWithRefinement(syn.Data, &badLoad, repro.FitOptions{NumPoles: 4}, 1); err == nil {
		t.Fatal("mismatched load must fail")
	}
}
