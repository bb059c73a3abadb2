package repro

// Representation conversions. The paper's conclusions (§V) point out that
// the sensitivity-weighting flow is independent of the native data
// representation: raw impedance or admittance samples, or scattering data
// normalized to any reference resistance, all feed the same machinery once
// mapped to a scattering set. These helpers perform those mappings; the
// representation-independence experiment (FINDINGS
// ext-a-representation-independence) runs the full flow through each path
// and verifies the target impedance agrees.

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/sparam"
)

func toCMatrices(samples [][][]complex128) ([]*mat.CMatrix, error) {
	out := make([]*mat.CMatrix, len(samples))
	if len(samples) == 0 {
		return nil, ErrBadData
	}
	p := len(samples[0])
	for k, s := range samples {
		if len(s) != p {
			return nil, fmt.Errorf("%w: sample %d has %d rows, want %d", ErrBadData, k, len(s), p)
		}
		m := mat.NewCMatrix(p, p)
		for i, row := range s {
			if len(row) != p {
				return nil, fmt.Errorf("%w: sample %d row %d has %d cols", ErrBadData, k, i, len(row))
			}
			copy(m.Data[i*p:(i+1)*p], row)
		}
		out[k] = m
	}
	return out, nil
}

func fromCMatrices(samples []*mat.CMatrix) [][][]complex128 {
	out := make([][][]complex128, len(samples))
	for k, m := range samples {
		p := m.Rows
		rows := make([][]complex128, p)
		for i := 0; i < p; i++ {
			rows[i] = append([]complex128(nil), m.Row(i)...)
		}
		out[k] = rows
	}
	return out
}

// SDataFromImpedance builds a scattering dataset from tabulated impedance
// samples (z[k][i][j] = Z_ij at freqHz[k]), normalized to r0.
func SDataFromImpedance(freqHz []float64, z [][][]complex128, r0 float64) (*SData, error) {
	if len(freqHz) != len(z) {
		return nil, ErrBadData
	}
	zm, err := toCMatrices(z)
	if err != nil {
		return nil, err
	}
	sm, err := sparam.SweepZToS(zm, r0)
	if err != nil {
		return nil, fmt.Errorf("repro: impedance conversion: %w", err)
	}
	d := &SData{Freq: append([]float64(nil), freqHz...), S: sm, R0: r0}
	return d, d.Validate()
}

// SDataFromAdmittance builds a scattering dataset from tabulated admittance
// samples (y[k][i][j] = Y_ij at freqHz[k]), normalized to r0.
func SDataFromAdmittance(freqHz []float64, y [][][]complex128, r0 float64) (*SData, error) {
	if len(freqHz) != len(y) {
		return nil, ErrBadData
	}
	ym, err := toCMatrices(y)
	if err != nil {
		return nil, err
	}
	sm, err := sparam.SweepYToS(ym, r0)
	if err != nil {
		return nil, fmt.Errorf("repro: admittance conversion: %w", err)
	}
	d := &SData{Freq: append([]float64(nil), freqHz...), S: sm, R0: r0}
	return d, d.Validate()
}

// Impedance converts the dataset to tabulated impedance matrices,
// Z_k = R0·(I−Ŝ_k)⁻¹(I+Ŝ_k). It fails when a sample has an eigenvalue at
// +1 (an ideally open port has no impedance representation).
func (d *SData) Impedance() ([][][]complex128, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	zm, err := sparam.SweepSToZ(d.S, d.R0)
	if err != nil {
		return nil, fmt.Errorf("repro: impedance conversion: %w", err)
	}
	return fromCMatrices(zm), nil
}

// Admittance converts the dataset to tabulated admittance matrices,
// Y_k = R0⁻¹·(I+Ŝ_k)⁻¹(I−Ŝ_k). It fails when a sample has an eigenvalue at
// −1 (an ideally shorted port has no admittance representation).
func (d *SData) Admittance() ([][][]complex128, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	ym, err := sparam.SweepSToY(d.S, d.R0)
	if err != nil {
		return nil, fmt.Errorf("repro: admittance conversion: %w", err)
	}
	return fromCMatrices(ym), nil
}

// Renormalized returns the dataset re-referenced to a new port resistance
// r1 (Ω) via the Möbius map S' = (I−ρS)⁻¹(S−ρI), ρ = (r1−R0)/(r1+R0).
// Passivity of the data is preserved.
func (d *SData) Renormalized(r1 float64) (*SData, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	sm, err := sparam.SweepRenormalize(d.S, d.R0, r1)
	if err != nil {
		return nil, fmt.Errorf("repro: renormalization: %w", err)
	}
	out := &SData{Freq: append([]float64(nil), d.Freq...), S: sm, R0: r1}
	return out, out.Validate()
}
