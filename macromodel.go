package repro

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"reflect"
	"strings"

	"repro/internal/mat"
	"repro/internal/rational"
)

// Macromodel is a stable common-pole rational scattering macromodel
//
//	S(s) = Σ_m R_m/(s − p_m) + D
//
// produced by Fit and consumed by the passivity and PDN analyses.
type Macromodel struct {
	model *rational.Model
	r0    float64
}

// Ports returns the port count P.
func (m *Macromodel) Ports() int { return m.model.Ports() }

// NumPoles returns the model order n.
func (m *Macromodel) NumPoles() int { return m.model.NumPoles() }

// Poles returns a copy of the pole set (conjugate pairs adjacent).
func (m *Macromodel) Poles() []complex128 {
	return append([]complex128(nil), m.model.Poles...)
}

// R0 returns the scattering normalization resistance (Ω).
func (m *Macromodel) R0() float64 { return m.r0 }

// Clone deep-copies the macromodel.
func (m *Macromodel) Clone() *Macromodel {
	return &Macromodel{model: m.model.Clone(), r0: m.r0}
}

// IsStable reports whether all poles lie strictly in the left half plane.
func (m *Macromodel) IsStable() bool { return m.model.IsStable(0) }

// Eval returns S(j2πf) as a dense complex matrix for a frequency in Hz.
func (m *Macromodel) Eval(freqHz float64) [][]complex128 {
	h := m.model.Eval(2 * math.Pi * freqHz)
	p := h.Rows
	out := make([][]complex128, p)
	for i := 0; i < p; i++ {
		out[i] = append([]complex128(nil), h.Row(i)...)
	}
	return out
}

// EvalEntry returns S_ij(j2πf).
func (m *Macromodel) EvalEntry(i, j int, freqHz float64) complex128 {
	return m.model.EvalEntry(i, j, 2*math.Pi*freqHz)
}

// Sample evaluates the model over a frequency grid, producing a dataset
// directly comparable with measured SData.
func (m *Macromodel) Sample(freqHz []float64) *SData {
	d := &SData{Freq: append([]float64(nil), freqHz...), R0: m.r0}
	for _, f := range freqHz {
		d.S = append(d.S, m.model.Eval(2*math.Pi*f))
	}
	return d
}

// MaxSingularValue returns σ_max(S(j2πf)).
func (m *Macromodel) MaxSingularValue(freqHz float64) float64 {
	return mat.MaxSingularValue(m.model.Eval(2 * math.Pi * freqHz))
}

// SingularValues returns all singular values of S(j2πf), descending.
func (m *Macromodel) SingularValues(freqHz float64) []float64 {
	return mat.SingularValues(m.model.Eval(2 * math.Pi * freqHz))
}

// RMSError returns the plain (unweighted) RMS deviation of the model from
// a dataset over all entries and frequencies.
func (m *Macromodel) RMSError(d *SData) float64 {
	p := m.Ports()
	sum, cnt := 0.0, 0
	for k, f := range d.Freq {
		h := m.model.Eval(2 * math.Pi * f)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				e := cmplx.Abs(h.At(i, j) - d.S[k].At(i, j))
				sum += e * e
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(cnt))
}

// modelJSON is the serialized form of a macromodel.
type modelJSON struct {
	R0       float64          `json:"r0"`
	Poles    [][2]float64     `json:"poles"`
	Residues [][][][2]float64 `json:"residues"` // [pole][row][col] = (re, im)
	D        [][]float64      `json:"d"`
}

// MarshalJSON implements json.Marshaler.
func (m *Macromodel) MarshalJSON() ([]byte, error) {
	p := m.Ports()
	out := modelJSON{R0: m.r0}
	for _, pole := range m.model.Poles {
		out.Poles = append(out.Poles, [2]float64{real(pole), imag(pole)})
	}
	for _, r := range m.model.Residues {
		rm := make([][][2]float64, p)
		for i := 0; i < p; i++ {
			rm[i] = make([][2]float64, p)
			for j := 0; j < p; j++ {
				z := r.At(i, j)
				rm[i][j] = [2]float64{real(z), imag(z)}
			}
		}
		out.Residues = append(out.Residues, rm)
	}
	for i := 0; i < p; i++ {
		out.D = append(out.D, append([]float64(nil), m.model.D.Row(i)...))
	}
	return json.Marshal(out)
}

// ErrInvalidModel marks a decoded model that is structurally broken (pole
// and residue counts differ, a residue or D row is ragged, or a complex
// pole lacks its adjacent conjugate) or that the passivity kernels would
// silently misread: a non-finite value, a pole with Re p ≥ 0, a complex
// residue on a real pole, or a conjugate pole pair whose residues are not
// conjugate. Decoding such a model returns an error wrapping it.
var ErrInvalidModel = rational.ErrInvalidModel

// UnmarshalJSON implements json.Unmarshaler. It rejects, with an error
// wrapping ErrInvalidModel, a structurally broken model or one the
// kernels would misread.
func (m *Macromodel) UnmarshalJSON(data []byte) error {
	var in modelJSON
	if err := json.Unmarshal(data, &in); err != nil {
		// A number too large for a float64 would decode as ±Inf.
		var ute *json.UnmarshalTypeError
		if errors.As(err, &ute) && ute.Type.Kind() == reflect.Float64 && strings.HasPrefix(ute.Value, "number") {
			return fmt.Errorf("%w: %v", ErrInvalidModel, err)
		}
		return err
	}
	n := len(in.Poles)
	if len(in.Residues) != n {
		return fmt.Errorf("%w: %d poles but %d residue matrices", ErrInvalidModel, n, len(in.Residues))
	}
	p := len(in.D)
	poles := make([]complex128, n)
	for i, pr := range in.Poles {
		poles[i] = complex(pr[0], pr[1])
	}
	residues := make([]*mat.CMatrix, n)
	for k, rm := range in.Residues {
		residues[k] = mat.NewCMatrix(p, p)
		if len(rm) != p {
			return fmt.Errorf("%w: residue %d has %d rows, want %d", ErrInvalidModel, k, len(rm), p)
		}
		for i := 0; i < p; i++ {
			if len(rm[i]) != p {
				return fmt.Errorf("%w: residue %d row %d has %d cols", ErrInvalidModel, k, i, len(rm[i]))
			}
			for j := 0; j < p; j++ {
				residues[k].Set(i, j, complex(rm[i][j][0], rm[i][j][1]))
			}
		}
	}
	d := mat.NewMatrix(p, p)
	for i := 0; i < p; i++ {
		if len(in.D[i]) != p {
			return fmt.Errorf("%w: D row %d has %d cols", ErrInvalidModel, i, len(in.D[i]))
		}
		copy(d.Row(i), in.D[i])
	}
	model, err := rational.New(poles, residues, d)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidModel, err)
	}
	if err := model.Validate(); err != nil {
		return err
	}
	m.model = model
	m.r0 = in.R0
	if m.r0 <= 0 {
		m.r0 = 50
	}
	return nil
}

// SaveFile writes the macromodel as JSON.
func (m *Macromodel) SaveFile(path string) error {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadMacromodel reads a JSON macromodel written by SaveFile.
func LoadMacromodel(path string) (*Macromodel, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &Macromodel{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, err
	}
	return m, nil
}
