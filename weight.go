package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/rational"
	"repro/internal/vecfit"
)

// Weight is a stable, minimum-phase SISO rational model Ξ̃(s) used as a
// frequency-dependent weight in fitting and passivity enforcement.
type Weight struct {
	model *rational.Model
}

// Eval returns |Ξ̃(j2πf)|.
func (w *Weight) Eval(freqHz float64) float64 {
	z := w.model.EvalEntry(0, 0, 2*math.Pi*freqHz)
	return math.Hypot(real(z), imag(z))
}

// Order returns the weight model order n_w.
func (w *Weight) Order() int { return w.model.NumPoles() }

// Poles returns a copy of the weight poles.
func (w *Weight) Poles() []complex128 {
	return append([]complex128(nil), w.model.Poles...)
}

// FitWeight fits a minimum-phase rational weight to magnitude samples
// xi[k] ≥ 0 at freqHz[k] via Magnitude Vector Fitting (paper eq. 17).
// order is n_w (the paper uses 8); iterations ≤ 0 selects the default.
func FitWeight(freqHz []float64, xi []float64, order, iterations int) (*Weight, error) {
	omega := make([]float64, len(freqHz))
	for i, f := range freqHz {
		omega[i] = 2 * math.Pi * f
	}
	m, _, err := vecfit.FitMagnitude(omega, xi, vecfit.MagOptions{Order: order, Iterations: iterations})
	if err != nil {
		return nil, err
	}
	return &Weight{model: m}, nil
}

// BuildWeight computes the sensitivity Ξ of the loaded PDN directly from
// the data and fits the weight model in one step (order ≤ 0 defaults to
// the paper's n_w = 8). It returns the weight and the raw sensitivity
// samples.
func BuildWeight(data *SData, load *Load, order int) (*Weight, []float64, error) {
	if err := data.Validate(); err != nil {
		return nil, nil, err
	}
	m, xi, err := core.BuildWeight(data.Omega(), data.S, data.R0, load, order)
	if err != nil {
		return nil, nil, err
	}
	return &Weight{model: m}, xi, nil
}

// weightJSON is the serialized form of a sensitivity weight: the SISO
// pole-residue model Ξ̃(s) = Σ r_m/(s − p_m) + d with angular-frequency
// poles, matching the macromodel JSON conventions.
type weightJSON struct {
	Poles    [][2]float64 `json:"poles"`
	Residues [][2]float64 `json:"residues"`
	D        float64      `json:"d"`
}

// MarshalJSON implements json.Marshaler.
func (w *Weight) MarshalJSON() ([]byte, error) {
	out := weightJSON{D: w.model.D.At(0, 0)}
	for _, p := range w.model.Poles {
		out.Poles = append(out.Poles, [2]float64{real(p), imag(p)})
	}
	for _, r := range w.model.ScalarResidues() {
		out.Residues = append(out.Residues, [2]float64{real(r), imag(r)})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (w *Weight) UnmarshalJSON(data []byte) error {
	var in weightJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if len(in.Poles) != len(in.Residues) {
		return fmt.Errorf("repro: weight has %d poles but %d residues", len(in.Poles), len(in.Residues))
	}
	poles := make([]complex128, len(in.Poles))
	res := make([]complex128, len(in.Residues))
	for i := range in.Poles {
		poles[i] = complex(in.Poles[i][0], in.Poles[i][1])
		res[i] = complex(in.Residues[i][0], in.Residues[i][1])
	}
	m, err := rational.NewScalar(poles, res, in.D)
	if err != nil {
		return err
	}
	w.model = m
	return nil
}

// Save writes the weight as JSON to an arbitrary stream, loadable by
// ReadWeight — the stream-level counterpart of SaveFile for services that
// ship weights over the network or store them compressed.
func (w *Weight) Save(dst io.Writer) error {
	data, err := json.MarshalIndent(w, "", " ")
	if err != nil {
		return err
	}
	_, err = dst.Write(data)
	return err
}

// ReadWeight reads a JSON sensitivity weight written by Weight.Save (or
// Weight.SaveFile), rejecting weights with unstable poles.
func ReadWeight(r io.Reader) (*Weight, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	w := &Weight{}
	if err := json.Unmarshal(data, w); err != nil {
		return nil, err
	}
	if !w.model.IsStable(0) {
		return nil, fmt.Errorf("repro: weight has unstable poles")
	}
	return w, nil
}

// SaveFile writes the weight as JSON, loadable by LoadWeightFile — the
// persistence step that lets one fitted sensitivity weight drive repeated
// weighted (batch) enforcement runs, e.g. via passcheck -weight. It
// delegates to Save.
func (w *Weight) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := w.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadWeightFile reads a JSON sensitivity weight written by Weight.SaveFile
// via ReadWeight.
func LoadWeightFile(path string) (*Weight, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w, err := ReadWeight(f)
	if err != nil {
		// ReadWeight errors already carry the package prefix; add the path.
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return w, nil
}
