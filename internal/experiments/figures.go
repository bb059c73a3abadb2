package experiments

import (
	"math"
	"math/cmplx"

	repro "repro"
	"repro/internal/experiments/hypothesis"
)

// fig1 — scattering responses of the STANDARD model vs raw data (paper
// Fig. 1): S(1,1) and S(1,2) magnitude and phase, plus fit-quality metrics.
func (c *Context) fig1() (hypothesis.Trial, error) {
	syn, err := c.Dataset()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	model, rep, err := c.StandardFit()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	s := &hypothesis.Series{
		Name:    "fig1_scattering_standard",
		Columns: map[string][]float64{},
		Order: []string{
			"s11_data_db", "s11_model_db", "s12_data_db", "s12_model_db",
			"s11_data_deg", "s11_model_deg", "s12_data_deg", "s12_model_deg",
		},
	}
	for _, col := range s.Order {
		s.Columns[col] = nil
	}
	for k, f := range syn.Data.Freq {
		s.X = append(s.X, f)
		d11 := syn.Data.At(k, 0, 0)
		d12 := syn.Data.At(k, 0, 1)
		m11 := model.EvalEntry(0, 0, f)
		m12 := model.EvalEntry(0, 1, f)
		s.Columns["s11_data_db"] = append(s.Columns["s11_data_db"], db(cmplx.Abs(d11)))
		s.Columns["s11_model_db"] = append(s.Columns["s11_model_db"], db(cmplx.Abs(m11)))
		s.Columns["s12_data_db"] = append(s.Columns["s12_data_db"], db(cmplx.Abs(d12)))
		s.Columns["s12_model_db"] = append(s.Columns["s12_model_db"], db(cmplx.Abs(m12)))
		s.Columns["s11_data_deg"] = append(s.Columns["s11_data_deg"], cmplx.Phase(d11)*180/math.Pi)
		s.Columns["s11_model_deg"] = append(s.Columns["s11_model_deg"], cmplx.Phase(m11)*180/math.Pi)
		s.Columns["s12_data_deg"] = append(s.Columns["s12_data_deg"], cmplx.Phase(d12)*180/math.Pi)
		s.Columns["s12_model_deg"] = append(s.Columns["s12_model_deg"], cmplx.Phase(m12)*180/math.Pi)
	}
	return hypothesis.Trial{
		Primary: rep.RMSErr,
		Pass:    !math.IsNaN(rep.RMSErr) && !math.IsInf(rep.RMSErr, 0),
		Series:  []*hypothesis.Series{s},
		Metrics: map[string]float64{
			"fit_rms_error":      rep.RMSErr,
			"fit_max_abs_error":  rep.MaxAbsErr,
			"model_order":        float64(model.NumPoles()),
			"vf_iterations_used": float64(rep.Iterations),
		},
		Notes: []string{"model matches raw scattering data closely (paper: 'match very closely the raw data')"},
	}, nil
}

// fig2 — target impedance after fitting (paper Fig. 2): nominal vs standard
// model vs sensitivity-weighted model, before any passivity enforcement.
func (c *Context) fig2() (hypothesis.Trial, error) {
	syn, err := c.Dataset()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	zref, err := c.ReferenceZ()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	std, _, err := c.StandardFit()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	wgt, _, err := c.WeightedFit()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	freqs := syn.Data.Freq
	zStd, err := repro.TargetImpedanceModel(std, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	zW, err := repro.TargetImpedanceModel(wgt, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	s := &hypothesis.Series{
		Name:    "fig2_target_impedance_after_fitting",
		Columns: map[string][]float64{},
		Order:   []string{"z_nominal_ohm", "z_standard_ohm", "z_weighted_ohm"},
	}
	for i, f := range freqs {
		s.X = append(s.X, f)
		s.Columns["z_nominal_ohm"] = append(s.Columns["z_nominal_ohm"], cmplx.Abs(zref[i]))
		s.Columns["z_standard_ohm"] = append(s.Columns["z_standard_ohm"], cmplx.Abs(zStd[i]))
		s.Columns["z_weighted_ohm"] = append(s.Columns["z_weighted_ohm"], cmplx.Abs(zW[i]))
	}
	stdLF := worstRel(zStd, zref, freqs, lfBand)
	wLF := worstRel(zW, zref, freqs, lfBand)
	return hypothesis.Trial{
		Primary: wLF,
		Pass:    wLF <= stdLF,
		Series:  []*hypothesis.Series{s},
		Metrics: map[string]float64{
			"standard_worst_rel_err_below_10MHz": stdLF,
			"weighted_worst_rel_err_below_10MHz": wLF,
			"standard_worst_rel_err_full_band":   worstRel(zStd, zref, freqs, allBand),
			"weighted_worst_rel_err_full_band":   worstRel(zW, zref, freqs, allBand),
		},
		Notes: []string{"paper: standard model 'severely deteriorated under nominal loading'; weighted model follows the nominal curve"},
	}, nil
}

// fig3 — the sensitivity Ξ(ω) samples vs the Magnitude-VF weight model
// |Ξ̃(jω)| (paper Fig. 3).
func (c *Context) fig3() (hypothesis.Trial, error) {
	syn, err := c.Dataset()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	xi, err := c.Sensitivity()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	w, err := c.WeightModel()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	s := &hypothesis.Series{
		Name:    "fig3_sensitivity_weight",
		Columns: map[string][]float64{},
		Order:   []string{"xi_data_db", "xi_model_db"},
	}
	var rmsNum, rmsDen float64
	maxXi := 0.0
	for _, v := range xi {
		if v > maxXi {
			maxXi = v
		}
	}
	for i, f := range syn.Data.Freq {
		if f == 0 {
			continue // log axis
		}
		s.X = append(s.X, f)
		m := w.Eval(f)
		s.Columns["xi_data_db"] = append(s.Columns["xi_data_db"], db(xi[i]))
		s.Columns["xi_model_db"] = append(s.Columns["xi_model_db"], db(m))
		// Relative accuracy where the sensitivity is significant (the
		// paper likewise ignores the deep notches / GHz spike).
		if xi[i] > 1e-3*maxXi {
			r := (m - xi[i]) / xi[i]
			rmsNum += r * r
			rmsDen++
		}
	}
	rms := math.Sqrt(rmsNum / math.Max(rmsDen, 1))
	dynRange := db(xi[1]) - db(xi[len(xi)-1])
	return hypothesis.Trial{
		Primary: dynRange,
		Pass:    dynRange >= 20,
		Series:  []*hypothesis.Series{s},
		Metrics: map[string]float64{
			"weight_order":                   float64(w.Order()),
			"weight_rms_rel_err_significant": rms,
			"xi_low_freq":                    xi[1],
			"xi_high_freq":                   xi[len(xi)-1],
			"xi_dynamic_range_db":            dynRange,
		},
	}, nil
}

// fig4 — singular values of the weighted-fit model before and after
// (weighted) passivity enforcement (paper Fig. 4).
func (c *Context) fig4() (hypothesis.Trial, error) {
	before, _, err := c.WeightedFit()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	after, rep, err := c.WeightedEnforced()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	grid := repro.LogFreqGrid(1e3, 4e9, 400, false)
	s := &hypothesis.Series{
		Name:    "fig4_singular_values",
		Columns: map[string][]float64{},
		Order:   []string{"sigma_max_before", "sigma_max_after"},
	}
	worstBefore, worstAfter := 0.0, 0.0
	for _, f := range grid {
		s.X = append(s.X, f)
		sb := before.MaxSingularValue(f)
		sa := after.MaxSingularValue(f)
		s.Columns["sigma_max_before"] = append(s.Columns["sigma_max_before"], sb)
		s.Columns["sigma_max_after"] = append(s.Columns["sigma_max_after"], sa)
		if sb > worstBefore {
			worstBefore = sb
		}
		if sa > worstAfter {
			worstAfter = sa
		}
	}
	return hypothesis.Trial{
		Primary: worstAfter,
		Pass:    worstBefore > 1 && worstAfter <= 1+1e-6,
		Series:  []*hypothesis.Series{s},
		Metrics: map[string]float64{
			"max_sigma_before":       worstBefore,
			"max_sigma_after":        worstAfter,
			"enforcement_iterations": float64(rep.Iterations),
		},
		Notes: []string{"paper: all singular values ≤ 1 after enforcement; passive in 9 iterations on their testcase"},
	}, nil
}

// fig5 — the headline result (paper Fig. 5): target impedance after
// passivity enforcement with and without sensitivity weighting.
func (c *Context) fig5() (hypothesis.Trial, error) {
	syn, err := c.Dataset()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	zref, err := c.ReferenceZ()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	nonPassive, _, err := c.WeightedFit()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	stdEnf, _, err := c.StandardEnforced()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	wEnf, _, err := c.WeightedEnforced()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	freqs := syn.Data.Freq
	zNP, err := repro.TargetImpedanceModel(nonPassive, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	zStd, err := repro.TargetImpedanceModel(stdEnf, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	zW, err := repro.TargetImpedanceModel(wEnf, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	s := &hypothesis.Series{
		Name:    "fig5_target_impedance_after_enforcement",
		Columns: map[string][]float64{},
		Order:   []string{"z_nominal_ohm", "z_nonpassive_ohm", "z_standard_enf_ohm", "z_weighted_enf_ohm"},
	}
	for i, f := range freqs {
		s.X = append(s.X, f)
		s.Columns["z_nominal_ohm"] = append(s.Columns["z_nominal_ohm"], cmplx.Abs(zref[i]))
		s.Columns["z_nonpassive_ohm"] = append(s.Columns["z_nonpassive_ohm"], cmplx.Abs(zNP[i]))
		s.Columns["z_standard_enf_ohm"] = append(s.Columns["z_standard_enf_ohm"], cmplx.Abs(zStd[i]))
		s.Columns["z_weighted_enf_ohm"] = append(s.Columns["z_weighted_enf_ohm"], cmplx.Abs(zW[i]))
	}
	stdLF := worstRel(zStd, zref, freqs, lfBand)
	wLF := worstRel(zW, zref, freqs, lfBand)
	ratio := stdLF / math.Max(wLF, 1e-12)
	return hypothesis.Trial{
		Primary: ratio,
		Pass:    ratio >= 1.5,
		Series:  []*hypothesis.Series{s},
		Metrics: map[string]float64{
			"nonpassive_worst_rel_err_below_10MHz":   worstRel(zNP, zref, freqs, lfBand),
			"standard_enf_worst_rel_err_below_10MHz": stdLF,
			"weighted_enf_worst_rel_err_below_10MHz": wLF,
			"standard_over_weighted_error_ratio":     ratio,
		},
		Notes: []string{"paper: standard enforcement 'deviates significantly at low frequencies... useless for practical design'; weighted stays accurate"},
	}, nil
}

// fig6 — scattering responses of the final weighted-passive model vs data
// (paper Fig. 6): enforcement must not degrade the scattering fit.
func (c *Context) fig6() (hypothesis.Trial, error) {
	syn, err := c.Dataset()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	model, _, err := c.WeightedEnforced()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	s := &hypothesis.Series{
		Name:    "fig6_scattering_weighted_passive",
		Columns: map[string][]float64{},
		Order: []string{
			"s11_data_db", "s11_model_db", "s12_data_db", "s12_model_db",
		},
	}
	for k, f := range syn.Data.Freq {
		s.X = append(s.X, f)
		s.Columns["s11_data_db"] = append(s.Columns["s11_data_db"], db(cmplx.Abs(syn.Data.At(k, 0, 0))))
		s.Columns["s11_model_db"] = append(s.Columns["s11_model_db"], db(cmplx.Abs(model.EvalEntry(0, 0, f))))
		s.Columns["s12_data_db"] = append(s.Columns["s12_data_db"], db(cmplx.Abs(syn.Data.At(k, 0, 1))))
		s.Columns["s12_model_db"] = append(s.Columns["s12_model_db"], db(cmplx.Abs(model.EvalEntry(0, 1, f))))
	}
	rms := model.RMSError(syn.Data)
	return hypothesis.Trial{
		Primary: rms,
		Pass:    rms <= 0.05,
		Series:  []*hypothesis.Series{s},
		Metrics: map[string]float64{
			"final_rms_error": rms,
		},
		Notes: []string{"paper: 'no difference ... can be noted in the scattering representation' vs Fig 1"},
	}, nil
}
