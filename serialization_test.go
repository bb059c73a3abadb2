package repro_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"strings"
	"testing"

	repro "repro"
	"repro/internal/synthpdn"
)

func fitSmallModel(t *testing.T, poles int) (*repro.Macromodel, *repro.SyntheticPDN) {
	t.Helper()
	freqs := repro.LogFreqGrid(1e3, 2e9, 40, true)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := repro.Fit(syn.Data, repro.FitOptions{NumPoles: poles, Iterations: 5, ConstrainD: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	return m, syn
}

// modelsAgree compares two models entrywise over a frequency set.
func modelsAgree(t *testing.T, a, b *repro.Macromodel, freqs []float64, tol float64) {
	t.Helper()
	if a.Ports() != b.Ports() || a.NumPoles() != b.NumPoles() {
		t.Fatalf("shape mismatch: %d/%d ports, %d/%d poles", a.Ports(), b.Ports(), a.NumPoles(), b.NumPoles())
	}
	for _, f := range freqs {
		ha := a.Eval(f)
		hb := b.Eval(f)
		for i := range ha {
			for j := range ha[i] {
				if d := cmplx.Abs(ha[i][j] - hb[i][j]); d > tol {
					t.Fatalf("f=%g (%d,%d): |Δ| = %g", f, i, j, d)
				}
			}
		}
	}
}

func TestReducedModelSerializes(t *testing.T) {
	// Models produced by balanced truncation (rank-one complex residues,
	// many poles) must survive the JSON round trip like fitted ones do.
	m, syn := fitSmallModel(t, 12)
	red, _, err := repro.ReduceModel(m, 40)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(red)
	if err != nil {
		t.Fatal(err)
	}
	var back repro.Macromodel
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	modelsAgree(t, red, &back, syn.Data.Freq[:10], 1e-10)
}

func TestUnmarshalRejectsStructurallyBrokenModels(t *testing.T) {
	var m repro.Macromodel
	cases := map[string]string{
		"count mismatch":     `{"r0":50,"poles":[[1,0]],"residues":[],"d":[[0]]}`,
		"dangling conjugate": `{"r0":50,"poles":[[-1,2]],"residues":[[[[1,0]]]],"d":[[0]]}`,
		"ragged residue row": `{"r0":50,"poles":[[-1,0]],"residues":[[[[1,0],[2,0]]]],"d":[[0]]}`,
		"ragged D row":       `{"r0":50,"poles":[[-1,0]],"residues":[[[[1,0]]]],"d":[[0,1]]}`,
		"non-conjugate pair": `{"r0":50,"poles":[[-1,2],[-1,3]],"residues":[[[[1,0]]],[[[1,0]]]],"d":[[0]]}`,
	}
	for name, c := range cases {
		if err := json.Unmarshal([]byte(c), &m); !errors.Is(err, repro.ErrInvalidModel) {
			t.Errorf("%s: json.Unmarshal error %v, want ErrInvalidModel", name, err)
		}
	}
}

// TestUnmarshalRejectsMisreadModels feeds the decoder 1-port models that
// the passivity kernels would misread: each must fail with an error
// wrapping ErrInvalidModel, through json.Unmarshal and LoadMacromodel
// alike. Without the check the unstable and the complex-residue model
// both certify passive.
func TestUnmarshalRejectsMisreadModels(t *testing.T) {
	cases := map[string]string{
		"unstable pole":           `{"poles":[[1000,0]],"residues":[[[[0.1,0]]]],"d":[[0.2]]}`,
		"pole on the axis":        `{"poles":[[0,1000],[0,-1000]],"residues":[[[[0.1,0]]],[[[0.1,0]]]],"d":[[0.2]]}`,
		"complex residue on real": `{"poles":[[-1000,0]],"residues":[[[[0.1,0.5]]]],"d":[[0.2]]}`,
		"non-conjugate residues":  `{"poles":[[-1000,2000],[-1000,-2000]],"residues":[[[[0.1,0.5]]],[[[0.1,0.5]]]],"d":[[0.2]]}`,
		"non-finite residue":      `{"poles":[[-1000,0]],"residues":[[[[1e999,0]]]],"d":[[0.2]]}`,
		"non-finite D":            `{"poles":[[-1000,0]],"residues":[[[[0.1,0]]]],"d":[[-1e999]]}`,
	}
	dir := t.TempDir()
	for name, c := range cases {
		var m repro.Macromodel
		if err := json.Unmarshal([]byte(c), &m); !errors.Is(err, repro.ErrInvalidModel) {
			t.Errorf("%s: json.Unmarshal error %v, want ErrInvalidModel", name, err)
		}
		path := filepath.Join(dir, "m.json")
		if err := os.WriteFile(path, []byte(c), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := repro.LoadMacromodel(path); !errors.Is(err, repro.ErrInvalidModel) {
			t.Errorf("%s: LoadMacromodel error %v, want ErrInvalidModel", name, err)
		}
	}
	// Rounding-level asymmetry stays within the pair tolerance.
	var m repro.Macromodel
	ok := `{"poles":[[-1000,2000],[-1000,-2000],[-50,0]],"residues":[[[[0.1,0.5]]],[[[0.1,-0.5000000000001]]],[[[3,1e-12]]]],"d":[[0.2]]}`
	if err := json.Unmarshal([]byte(ok), &m); err != nil {
		t.Fatalf("model conjugate to rounding rejected: %v", err)
	}
}

// TestProducedModelsDecode round-trips through JSON every kind of model
// the repository's own flows produce — paper-flow weighted fits of the
// synthpdn.Small variants and their enforced forms, and the service-mix
// synthetic library models with their residue-scaled variants and an
// enforced violating one — and requires each to decode (so pass Validate)
// and re-encode to the same bytes.
func TestProducedModelsDecode(t *testing.T) {
	var models []*repro.Macromodel
	freqs := repro.LogFreqGrid(1e3, 2e9, 100, true)
	for seed := int64(1000); seed < 1002; seed++ {
		cfg := synthpdn.Small()
		cfg.Seed = seed
		p, err := synthpdn.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := p.Circuit.SweepS(freqs, 50)
		if err != nil {
			t.Fatal(err)
		}
		data := &repro.SData{Freq: freqs, S: ss, R0: 50}
		w, xi, err := repro.BuildWeight(data, p.NominalLoad(), 8)
		if err != nil {
			t.Fatal(err)
		}
		fit, _, err := repro.Fit(data, repro.FitOptions{NumPoles: 12, Weights: xi, ConstrainD: 0.999})
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, fit)
		enf := fit.Clone()
		if _, err := repro.EnforcePassivity(enf, repro.EnforceOptions{ClampD: true, Weight: w}); err != nil {
			t.Fatal(err)
		}
		models = append(models, enf)
	}
	for f := int64(0); f < 2; f++ {
		base, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{Ports: 4, Poles: 60, Seed: 100 + f, PeakGain: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, base, scaledModel(t, base, 1.014))
	}
	bad, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{Ports: 2, Poles: 16, Seed: 42, PeakGain: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.EnforcePassivity(bad, repro.EnforceOptions{ClampD: true}); err != nil {
		t.Fatal(err)
	}
	models = append(models, bad)

	for i, m := range models {
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back repro.Macromodel
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("model %d does not decode: %v", i, err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, again) {
			t.Fatalf("model %d: JSON round trip changed the bytes", i)
		}
	}
}

// scaledModel returns m with every residue scaled by k, as service-mix
// derives its library variants.
func scaledModel(t *testing.T, m *repro.Macromodel, k float64) *repro.Macromodel {
	t.Helper()
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var mj struct {
		R0       float64          `json:"r0"`
		Poles    [][2]float64     `json:"poles"`
		Residues [][][][2]float64 `json:"residues"`
		D        [][]float64      `json:"d"`
	}
	if err := json.Unmarshal(blob, &mj); err != nil {
		t.Fatal(err)
	}
	for _, rm := range mj.Residues {
		for i := range rm {
			for j := range rm[i] {
				rm[i][j][0] *= k
				rm[i][j][1] *= k
			}
		}
	}
	if blob, err = json.Marshal(mj); err != nil {
		t.Fatal(err)
	}
	out := &repro.Macromodel{}
	if err := json.Unmarshal(blob, out); err != nil {
		t.Fatalf("scaled model does not decode: %v", err)
	}
	return out
}

func TestEnforcePassivityByScalingPublicAPI(t *testing.T) {
	// The strawman baseline must terminate passive through the public
	// wrapper too, reporting a meaningful γ.
	m, syn := fitSmallModel(t, 12)
	chk, err := repro.CheckPassivity(m, repro.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if chk.Passive {
		t.Skip("fit happened to be passive; nothing to scale")
	}
	rep, err := repro.EnforcePassivityByScaling(m, repro.EnforceOptions{ClampD: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passive || !rep.Final.Passive {
		t.Fatal("scaling must end passive")
	}
	if rep.Gamma <= 0 || rep.Gamma >= 1 {
		t.Fatalf("expected 0 < γ < 1 for a non-passive fit, got %v", rep.Gamma)
	}
	if rep.Checks < 2 {
		t.Fatalf("bisection should need several checks, got %d", rep.Checks)
	}
	// The scaled model must still beat a zeroed model in fit quality: γ>0
	// keeps some response.
	if rms := m.RMSError(syn.Data); rms >= 1 {
		t.Fatalf("scaled model lost all structure: RMS %v", rms)
	}
}

// TestWeightJSONRoundTrip: a fitted sensitivity weight must survive
// SaveFile/LoadWeightFile with its magnitude response intact — bitwise, in
// fact, since the JSON stores full float64 precision.
func TestWeightJSONRoundTrip(t *testing.T) {
	freqs := repro.LogFreqGrid(1e3, 2e9, 40, false)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	xi, err := repro.Sensitivity(syn.Data, syn.Load)
	if err != nil {
		t.Fatal(err)
	}
	w, err := repro.FitWeight(freqs, xi, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/weight.json"
	if err := w.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := repro.LoadWeightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Order() != w.Order() {
		t.Fatalf("order changed: %d vs %d", back.Order(), w.Order())
	}
	for _, f := range []float64{1e3, 1e5, 1e7, 1e9} {
		if back.Eval(f) != w.Eval(f) {
			t.Fatalf("|W(%g)| changed across round trip: %v vs %v", f, back.Eval(f), w.Eval(f))
		}
	}
	if _, err := repro.LoadWeightFile(t.TempDir() + "/missing.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestTouchstoneStreamRoundTrip: WriteTouchstoneTo/ReadTouchstoneFrom
// carry a dataset through an in-memory stream with no temp files, and the
// path-based functions (which now delegate to them) agree with the stream
// pair exactly.
func TestTouchstoneStreamRoundTrip(t *testing.T) {
	freqs := repro.LogFreqGrid(1e3, 2e9, 25, false)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.WriteTouchstoneTo(&buf, syn.Data); err != nil {
		t.Fatal(err)
	}
	back, err := repro.ReadTouchstoneFrom(bytes.NewReader(buf.Bytes()), syn.Data.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if back.Ports() != syn.Data.Ports() || back.Points() != syn.Data.Points() {
		t.Fatalf("shape changed: %d ports/%d points, want %d/%d",
			back.Ports(), back.Points(), syn.Data.Ports(), syn.Data.Points())
	}
	for k := range back.Freq {
		for i := 0; i < back.Ports(); i++ {
			for j := 0; j < back.Ports(); j++ {
				if d := cmplx.Abs(back.At(k, i, j) - syn.Data.At(k, i, j)); d > 1e-9 {
					t.Fatalf("sample %d (%d,%d): |Δ| = %g", k, i, j, d)
				}
			}
		}
	}
	// The stream reader cannot infer ports and must say so.
	if _, err := repro.ReadTouchstoneFrom(bytes.NewReader(buf.Bytes()), 0); err == nil {
		t.Fatal("ReadTouchstoneFrom accepted ports=0")
	}
	// Path-based functions agree with the stream pair byte for byte.
	path := t.TempDir() + "/net.s8p"
	if err := repro.WriteTouchstone(path, syn.Data); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, buf.Bytes()) {
		t.Fatal("WriteTouchstone and WriteTouchstoneTo produced different bytes")
	}
	fromDisk, err := repro.ReadTouchstone(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fromDisk.Points() != back.Points() || fromDisk.Ports() != back.Ports() {
		t.Fatal("ReadTouchstone and ReadTouchstoneFrom disagree")
	}
}

// TestWeightStreamRoundTrip: Weight.Save/ReadWeight mirror the file pair
// on an arbitrary stream, including the stability gate.
func TestWeightStreamRoundTrip(t *testing.T) {
	freqs := repro.LogFreqGrid(1e3, 2e9, 40, false)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	xi, err := repro.Sensitivity(syn.Data, syn.Load)
	if err != nil {
		t.Fatal(err)
	}
	w, err := repro.FitWeight(freqs, xi, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := repro.ReadWeight(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1e3, 1e6, 1e9} {
		if back.Eval(f) != w.Eval(f) {
			t.Fatalf("|W(%g)| changed across stream round trip", f)
		}
	}
	// An unstable weight must be rejected by the stream reader too.
	unstable := `{"poles":[[1,0]],"residues":[[1,0]],"d":0}`
	if _, err := repro.ReadWeight(strings.NewReader(unstable)); err == nil {
		t.Fatal("ReadWeight accepted unstable poles")
	}
}

// TestEnforcePassivityBatchPerModelWeights: the public batch path accepts
// per-model weights and stays bitwise identical to sequential per-model
// weighted EnforcePassivity.
func TestEnforcePassivityBatchPerModelWeights(t *testing.T) {
	freqs := repro.LogFreqGrid(1e3, 2e9, 40, false)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	xi, err := repro.Sensitivity(syn.Data, syn.Load)
	if err != nil {
		t.Fatal(err)
	}
	weight, err := repro.FitWeight(freqs, xi, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	build := func() []*repro.Macromodel {
		lib := make([]*repro.Macromodel, n)
		for i := range lib {
			m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
				Ports: 2, Poles: 14, Seed: int64(200 + i), PeakGain: 1.1,
			})
			if err != nil {
				t.Fatal(err)
			}
			lib[i] = m
		}
		return lib
	}
	opts := repro.EnforceOptions{Check: repro.CheckOptions{Method: repro.CheckAdaptive}, Weight: weight}

	seq := build()
	for i, m := range seq {
		if _, err := repro.EnforcePassivity(m, opts); err != nil {
			t.Fatalf("sequential model %d: %v", i, err)
		}
	}
	bat := build()
	rep, err := repro.EnforcePassivityBatch(bat, repro.BatchEnforceOptions{
		Enforce: repro.EnforceOptions{Check: opts.Check},
		Weights: []*repro.Weight{weight, weight, weight},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bat {
		if rep.Errors[i] != nil {
			t.Fatalf("batch model %d: %v", i, rep.Errors[i])
		}
		for _, f := range []float64{0.5, 7, 90, 1100} {
			a, b := seq[i].Eval(f), bat[i].Eval(f)
			for r := range a {
				for c := range a[r] {
					if a[r][c] != b[r][c] {
						t.Fatalf("model %d: batch with per-model weights differs bitwise at f=%g", i, f)
					}
				}
			}
		}
	}
	if _, err := repro.EnforcePassivityBatch(bat, repro.BatchEnforceOptions{
		Weights: []*repro.Weight{weight},
	}); err == nil {
		t.Fatal("mis-sized Weights accepted")
	}
}

func TestReportWithUnboundedBandsSerializes(t *testing.T) {
	// An unbounded violation band and an open certificate tail both carry
	// FreqHiHz = +Inf, which encoding/json rejects outright — the custom
	// band marshalers encode it as the string "Inf" so a report survives
	// the passivityd wire (and any other JSON sink) and decodes back to
	// the same infinity.
	rep := &repro.PassivityReport{
		Passive:  false,
		MaxSigma: 42.3,
		Violations: []repro.PassivityViolation{
			{FreqPeakHz: 1e6, SigmaPeak: 1.01, FreqLoHz: 5e5, FreqHiHz: 2e6},
			{FreqPeakHz: 2e9, SigmaPeak: 42.3, FreqLoHz: 1.6e9, FreqHiHz: math.Inf(1)},
		},
		Certificate: &repro.PassivityCertificate{
			Stage:     "tail-bound",
			Intervals: 3,
			Open:      []repro.CertificateBand{{FreqLoHz: 0, FreqHiHz: math.Inf(1)}},
		},
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(blob), `"Inf"`) {
		t.Fatalf("unbounded edges not string-encoded: %s", blob)
	}
	var back repro.PassivityReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got := back.Violations[1].FreqHiHz; !math.IsInf(got, 1) {
		t.Fatalf("violation hi edge round-tripped to %v, want +Inf", got)
	}
	if got := back.Violations[0].FreqHiHz; got != 2e6 {
		t.Fatalf("bounded hi edge round-tripped to %v, want 2e6", got)
	}
	if got := back.Certificate.Open[0].FreqHiHz; !math.IsInf(got, 1) {
		t.Fatalf("open band hi edge round-tripped to %v, want +Inf", got)
	}
}
