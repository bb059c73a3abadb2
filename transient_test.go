package repro_test

import (
	"math"
	"math/cmplx"
	"testing"

	repro "repro"
)

// extractSmall runs the full weighted flow on the 8-port synthetic PDN once
// and shares the result across the transient tests.
func extractSmall(t *testing.T) (*repro.ExtractResult, *repro.SyntheticPDN) {
	t.Helper()
	freqs := repro.LogFreqGrid(1e3, 2e9, 60, true)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Extract(syn.Data, syn.Load, repro.ExtractOptions{
		NumPoles: 8,
		Enforce: repro.EnforceOptions{
			Check: repro.CheckOptions{Method: repro.CheckSweep, FreqMin: 500, FreqMax: 4e9, SweepPoints: 800},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, syn
}

func TestTransientDroopOfExtractedModel(t *testing.T) {
	res, syn := extractSmall(t)
	rep, wave, err := repro.Droop(res.Model, syn.Load, 1e-9, repro.TransientOptions{
		Dt: 2e-10, Steps: 20000, RecordEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakDroop <= 0 {
		t.Fatal("expected a nonzero droop")
	}
	// A passive macromodel with passive terminations must never deliver
	// negative cumulative energy.
	if rep.MinEnergy < -1e-9 {
		t.Fatalf("passive model generated energy: %v", rep.MinEnergy)
	}
	// The waveform must stay bounded by a generous multiple of the peak
	// target impedance level.
	if rep.PeakDroop > 100 {
		t.Fatalf("droop %v V for 1 A is not plausible for a PDN", rep.PeakDroop)
	}
	if len(wave.T) == 0 {
		t.Fatal("no recorded waveform")
	}
}

func TestTransientSineMatchesTargetImpedance(t *testing.T) {
	res, syn := extractSmall(t)
	const f0 = 5e7
	zs, err := repro.TargetImpedanceModel(res.Model, []float64{f0}, syn.Load)
	if err != nil {
		t.Fatal(err)
	}
	want := cmplx.Abs(zs[0])

	out, err := repro.Transient(res.Model, syn.Load, repro.SineWave(f0, 1), repro.TransientOptions{
		Dt: 1 / (50 * f0), Steps: 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	amp, _ := out.FitTone(syn.Load.ObsPort, f0, out.T[len(out.T)-1]*0.6)
	if math.Abs(amp-want) > 0.05*want {
		t.Fatalf("transient steady-state amplitude %v, frequency domain %v", amp, want)
	}
}

func TestTransientErrorPaths(t *testing.T) {
	res, syn := extractSmall(t)
	if _, err := repro.Transient(res.Model, syn.Load, nil, repro.TransientOptions{Dt: 1e-9, Steps: 10}); err == nil {
		t.Fatal("nil waveform must fail")
	}
	if _, err := repro.Transient(res.Model, syn.Load, repro.StepWave(0, 0, 1), repro.TransientOptions{}); err == nil {
		t.Fatal("missing Dt/Steps must fail")
	}
	empty := *syn.Load
	empty.J = make([]complex128, len(syn.Load.J))
	if _, err := repro.Transient(res.Model, &empty, repro.StepWave(0, 0, 1), repro.TransientOptions{Dt: 1e-9, Steps: 10}); err == nil {
		t.Fatal("zero excitation must fail")
	}
}
