package experiments

// Extension experiments beyond the paper's six figures, exercising the
// claims of its Conclusions section and the baselines its introduction
// cites. Each returns a trial like the figN methods:
//
//	Ext-A  representation independence (§V: admittance/impedance data and
//	       arbitrary reference resistance feed the same flow)
//	Ext-B  time-domain verification: the enforced models driven by a
//	       switching tone; the weighted model reproduces the nominal
//	       impedance in transient, the standard one does not
//	Ext-C  classical projection MOR (balanced truncation, refs [6,7])
//	       against direct black-box identification
//	Ext-D  enforcement-baseline ablation: weighted vs standard QP vs
//	       global residue scaling
//
// Ext-E..Ext-H (adaptive characterization, batch enforcement, the
// closed-form weighted Gramian, certified enforcement) run on synthetic
// model libraries rather than this context; their specs live in
// hypotheses.go.

import (
	"fmt"
	"math"
	"math/cmplx"

	repro "repro"
	"repro/internal/experiments/hypothesis"
)

// extA — representation independence. The same flow (sensitivity-weighted
// fit + weighted enforcement) is run from three representations of the same
// structure: native 50 Ω scattering, scattering renormalized to 5 Ω, and
// data converted through the admittance form onto a 20 Ω reference. All
// three passive models must reproduce the nominal target impedance.
func (c *Context) extA() (hypothesis.Trial, error) {
	syn, err := c.Dataset()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	zref, err := c.ReferenceZ()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	wEnf, _, err := c.WeightedEnforced()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	freqs := syn.Data.Freq

	extract := func(data *repro.SData) (*repro.Macromodel, error) {
		res, err := repro.Extract(data, syn.Load, repro.ExtractOptions{
			NumPoles:     c.Cfg.Poles,
			VFIterations: c.Cfg.VFIterations,
			WeightOrder:  c.Cfg.WeightOrder,
			Enforce:      c.enforceOptions(nil),
		})
		if err != nil {
			return nil, err
		}
		return res.Model, nil
	}

	renorm, err := syn.Data.Renormalized(5)
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("renormalize to 5Ω: %w", err)
	}
	mRenorm, err := extract(renorm)
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("flow on 5Ω data: %w", err)
	}

	y, err := syn.Data.Admittance()
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("admittance form: %w", err)
	}
	viaY, err := repro.SDataFromAdmittance(freqs, y, 20)
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("admittance → 20Ω scattering: %w", err)
	}
	mViaY, err := extract(viaY)
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("flow on Y-derived data: %w", err)
	}

	z50, err := repro.TargetImpedanceModel(wEnf, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	z5, err := repro.TargetImpedanceModel(mRenorm, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	zY, err := repro.TargetImpedanceModel(mViaY, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}

	s := &hypothesis.Series{
		Name:    "extA_representation_independence",
		Columns: map[string][]float64{},
		Order:   []string{"z_nominal_ohm", "z_from_50ohm_ohm", "z_from_5ohm_ohm", "z_via_admittance_ohm"},
	}
	for i, f := range freqs {
		s.X = append(s.X, f)
		s.Columns["z_nominal_ohm"] = append(s.Columns["z_nominal_ohm"], cmplx.Abs(zref[i]))
		s.Columns["z_from_50ohm_ohm"] = append(s.Columns["z_from_50ohm_ohm"], cmplx.Abs(z50[i]))
		s.Columns["z_from_5ohm_ohm"] = append(s.Columns["z_from_5ohm_ohm"], cmplx.Abs(z5[i]))
		s.Columns["z_via_admittance_ohm"] = append(s.Columns["z_via_admittance_ohm"], cmplx.Abs(zY[i]))
	}
	e50 := worstRel(z50, zref, freqs, lfBand)
	e5 := worstRel(z5, zref, freqs, lfBand)
	eY := worstRel(zY, zref, freqs, lfBand)
	// Representation independence is a consistency claim: every path must
	// complete (Extract fails unless it produces a passive model) and no
	// path may be catastrophically worse than another. Absolute accuracy
	// is Fig 5's ratio.
	spread := math.Max(e5, math.Max(e50, eY)) / math.Max(1e-12, math.Min(e5, math.Min(e50, eY)))
	finite := true
	for _, e := range []float64{e50, e5, eY} {
		finite = finite && !math.IsNaN(e) && !math.IsInf(e, 0)
	}
	return hypothesis.Trial{
		Primary: spread,
		Pass:    finite && spread <= 50,
		Series:  []*hypothesis.Series{s},
		Metrics: map[string]float64{
			"z_err_lf_native_50ohm":    e50,
			"z_err_lf_renormalized_5":  e5,
			"z_err_lf_via_admittance":  eY,
			"worst_path_over_best":     spread,
			"renormalized_model_r0":    mRenorm.R0(),
			"admittance_path_model_r0": mViaY.R0(),
		},
		Notes: []string{"paper §V: 'the same sensitivity-based weighting process can be applied to native data in admittance or impedance form, as well as in scattering representations normalized to different port resistances'"},
	}, nil
}

// extB — transient verification. Both enforced models are driven by a
// switching tone at the low frequency where the standard-enforcement model
// is most wrong; the weighted model's steady-state amplitude matches the
// nominal impedance, the standard one inherits its frequency-domain error.
// Cumulative energy must stay nonnegative for both (they are passive).
func (c *Context) extB() (hypothesis.Trial, error) {
	syn, err := c.Dataset()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	zref, err := c.ReferenceZ()
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
	zStd, err := repro.TargetImpedanceModel(stdEnf, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}

	// Tone where the standard model errs most, within a simulable band.
	k0 := -1
	worst := -1.0
	for i, f := range freqs {
		if f < 2e5 || f > 1e7 {
			continue
		}
		if r := cmplx.Abs(zStd[i]-zref[i]) / (1e-15 + cmplx.Abs(zref[i])); r > worst {
			worst, k0 = r, i
		}
	}
	if k0 < 0 {
		return hypothesis.Trial{}, fmt.Errorf("extB: no grid point in the 0.2–10 MHz band")
	}
	f0 := freqs[k0]
	want := cmplx.Abs(zref[k0])

	const cyclesTotal = 40
	dt := 1 / (64 * f0)
	steps := 64 * cyclesTotal
	// fdAmp is the model's own frequency-domain prediction at the tone;
	// the transient amplitude must reproduce it (time ↔ frequency domain
	// consistency), and its distance from the nominal impedance is the
	// model's real-world droop error.
	run := func(m *repro.Macromodel) (*repro.TransientResult, float64, float64, error) {
		zm, err := repro.TargetImpedanceModel(m, []float64{f0}, syn.Load)
		if err != nil {
			return nil, 0, 0, err
		}
		res, err := repro.Transient(m, syn.Load, repro.SineWave(f0, 1), repro.TransientOptions{
			Dt: dt, Steps: steps,
		})
		if err != nil {
			return nil, 0, 0, err
		}
		amp, _ := res.FitTone(syn.Load.ObsPort, f0, res.T[len(res.T)-1]/2)
		return res, amp, cmplx.Abs(zm[0]), nil
	}
	resW, ampW, fdW, err := run(wEnf)
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("weighted transient: %w", err)
	}
	resStd, ampStd, fdStd, err := run(stdEnf)
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("standard transient: %w", err)
	}

	s := &hypothesis.Series{
		Name:    "extB_transient_tone_waveforms",
		XLabel:  "time_s",
		Columns: map[string][]float64{},
		Order:   []string{"v_weighted_v", "v_standard_v"},
	}
	for k := range resW.T {
		s.X = append(s.X, resW.T[k])
		s.Columns["v_weighted_v"] = append(s.Columns["v_weighted_v"], resW.V[k][syn.Load.ObsPort])
		s.Columns["v_standard_v"] = append(s.Columns["v_standard_v"], resStd.V[k][syn.Load.ObsPort])
	}
	errW := math.Abs(ampW-want) / want
	errStd := math.Abs(ampStd-want) / want
	consW := math.Abs(ampW-fdW) / math.Max(fdW, 1e-12)
	consStd := math.Abs(ampStd-fdStd) / math.Max(fdStd, 1e-12)
	return hypothesis.Trial{
		Primary: math.Max(consW, consStd),
		Pass: consW <= 0.05 && consStd <= 0.05 &&
			resW.MinEnergy() >= -1e-9 && resStd.MinEnergy() >= -1e-9,
		Series: []*hypothesis.Series{s},
		Metrics: map[string]float64{
			"tone_freq_hz":     f0,
			"z_nominal_ohm":    want,
			"amp_weighted_ohm": ampW,
			"amp_standard_ohm": ampStd,
			// Transient vs the model's own frequency response: the
			// co-simulation consistency check, tight on every config.
			"td_fd_consistency_weighted": consW,
			"td_fd_consistency_standard": consStd,
			// Transient vs the NOMINAL impedance: the droop error a
			// designer would see; the weighted model should win.
			"amp_rel_err_weighted":        errW,
			"amp_rel_err_standard":        errStd,
			"standard_over_weighted":      errStd / math.Max(errW, 1e-12),
			"min_energy_weighted_joule":   resW.MinEnergy(),
			"min_energy_standard_joule":   resStd.MinEnergy(),
			"freq_domain_err_at_tone_std": worst,
		},
		Notes: []string{"the paper's end use (§I): transient PDN verification; the standard-SOCP model's low-frequency error shows up directly as a wrong droop amplitude"},
	}, nil
}

// extC — classical projection-based MOR (balanced truncation of an
// overfitted model) against direct black-box identification at the same
// realization size, both judged in the scattering norm and under the
// nominal load. Runs on the 8-port structure so that the full BT pipeline
// (Gramians → Hankel SVD → projection → pole-residue → enforcement) stays
// interactive.
func (c *Context) extC() (hypothesis.Trial, error) {
	freqs := c.Freqs()
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	zref, err := repro.TargetImpedance(syn.Data, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	ports := syn.Data.Ports()

	checkOpts := repro.CheckOptions{Method: repro.CheckSweep, FreqMin: 500, FreqMax: 4e9, SweepPoints: 800}
	enforce := func(m *repro.Macromodel) error {
		chk, err := repro.CheckPassivity(m, checkOpts)
		if err != nil {
			return err
		}
		if chk.Passive {
			return nil
		}
		_, err = repro.EnforcePassivity(m, repro.EnforceOptions{
			Check:         checkOpts,
			Margin:        c.Cfg.EnforceMargin,
			MaxIterations: 80,
			ClampD:        true,
		})
		return err
	}

	direct, _, err := repro.Fit(syn.Data, repro.FitOptions{
		NumPoles: c.Cfg.Poles, Iterations: c.Cfg.VFIterations, ConstrainD: 0.999,
	})
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("direct fit: %w", err)
	}
	if err := enforce(direct); err != nil {
		return hypothesis.Trial{}, fmt.Errorf("enforcing direct model: %w", err)
	}

	big, _, err := repro.Fit(syn.Data, repro.FitOptions{
		NumPoles: c.Cfg.Poles + 8, Iterations: c.Cfg.VFIterations, ConstrainD: 0.999,
	})
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("overfit: %w", err)
	}
	// Match the direct model's realization size n·P. The reduced model
	// inherits the overfit model's (non-)passivity plus the truncation
	// error, so it gets the same enforcement pass as the direct flow.
	target := c.Cfg.Poles * ports
	red, redRep, err := repro.ReduceModel(big, target)
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("balanced truncation: %w", err)
	}
	chk, err := repro.CheckPassivity(red, checkOpts)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	sigmaBefore := chk.MaxSigma
	if err := enforce(red); err != nil {
		return hypothesis.Trial{}, fmt.Errorf("enforcing reduced model: %w", err)
	}

	zDirect, err := repro.TargetImpedanceModel(direct, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	zRed, err := repro.TargetImpedanceModel(red, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	s := &hypothesis.Series{
		Name:    "extC_mor_vs_vf",
		Columns: map[string][]float64{},
		Order:   []string{"z_nominal_ohm", "z_vf_direct_ohm", "z_bt_reduced_ohm"},
	}
	for i, f := range freqs {
		s.X = append(s.X, f)
		s.Columns["z_nominal_ohm"] = append(s.Columns["z_nominal_ohm"], cmplx.Abs(zref[i]))
		s.Columns["z_vf_direct_ohm"] = append(s.Columns["z_vf_direct_ohm"], cmplx.Abs(zDirect[i]))
		s.Columns["z_bt_reduced_ohm"] = append(s.Columns["z_bt_reduced_ohm"], cmplx.Abs(zRed[i]))
	}
	tail := 0.0
	if len(redRep.Hankel) > 0 {
		tail = redRep.Hankel[len(redRep.Hankel)-1] / redRep.Hankel[0]
	}
	rmsOverfit, rmsReduced := big.RMSError(syn.Data), red.RMSError(syn.Data)
	return hypothesis.Trial{
		Primary: rmsReduced,
		Pass:    rmsReduced <= 50*rmsOverfit+redRep.Bound,
		Series:  []*hypothesis.Series{s},
		Metrics: map[string]float64{
			"rms_s_direct":             direct.RMSError(syn.Data),
			"rms_s_overfit":            rmsOverfit,
			"rms_s_reduced":            rmsReduced,
			"z_err_all_direct":         worstRel(zDirect, zref, freqs, allBand),
			"z_err_all_reduced":        worstRel(zRed, zref, freqs, allBand),
			"bt_bound":                 redRep.Bound,
			"bt_retained_order":        float64(redRep.Order),
			"hankel_tail_over_head":    tail,
			"sigma_max_before_repair":  sigmaBefore,
			"reduced_model_num_poles":  float64(red.NumPoles()),
			"direct_realization_order": float64(c.Cfg.Poles * ports),
		},
		Notes: []string{"balanced truncation needs an enforcement pass of its own (projection does not preserve scattering passivity) and matches direct VF only when the overfit source model is accurate — the classical-MOR baseline of the paper's introduction"},
	}, nil
}

// extD — enforcement ablation. The same non-passive weighted fit is made
// passive three ways: the paper's weighted QP, the standard QP, and global
// residue scaling; the target-impedance damage tells them apart.
func (c *Context) extD() (hypothesis.Trial, error) {
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
	scaled := nonPassive.Clone()
	// The bisection needs ~12 sweeps; a coarser grid is plenty to locate
	// the strawman's γ (the QP schemes keep the full-resolution check).
	scalOpts := c.enforceOptions(nil)
	scalOpts.Check.SweepPoints = 500
	scalRep, err := repro.EnforcePassivityByScaling(scaled, scalOpts)
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("residue scaling: %w", err)
	}

	freqs := syn.Data.Freq
	zStd, err := repro.TargetImpedanceModel(stdEnf, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	zW, err := repro.TargetImpedanceModel(wEnf, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	zScal, err := repro.TargetImpedanceModel(scaled, freqs, syn.Load)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	s := &hypothesis.Series{
		Name:    "extD_enforcement_ablation",
		Columns: map[string][]float64{},
		Order:   []string{"z_nominal_ohm", "z_weighted_qp_ohm", "z_standard_qp_ohm", "z_residue_scaling_ohm"},
	}
	for i, f := range freqs {
		s.X = append(s.X, f)
		s.Columns["z_nominal_ohm"] = append(s.Columns["z_nominal_ohm"], cmplx.Abs(zref[i]))
		s.Columns["z_weighted_qp_ohm"] = append(s.Columns["z_weighted_qp_ohm"], cmplx.Abs(zW[i]))
		s.Columns["z_standard_qp_ohm"] = append(s.Columns["z_standard_qp_ohm"], cmplx.Abs(zStd[i]))
		s.Columns["z_residue_scaling_ohm"] = append(s.Columns["z_residue_scaling_ohm"], cmplx.Abs(zScal[i]))
	}
	eW := worstRel(zW, zref, freqs, lfBand)
	eStd := worstRel(zStd, zref, freqs, lfBand)
	eScal := worstRel(zScal, zref, freqs, lfBand)
	return hypothesis.Trial{
		Primary: eScal / math.Max(eW, 1e-12),
		Pass:    scalRep.Gamma > 0 && scalRep.Gamma <= 1 && eScal >= eW,
		Series:  []*hypothesis.Series{s},
		Metrics: map[string]float64{
			"z_err_lf_weighted_qp":     eW,
			"z_err_lf_standard_qp":     eStd,
			"z_err_lf_residue_scaling": eScal,
			"scaling_gamma":            scalRep.Gamma,
			"scaling_checks":           float64(scalRep.Checks),
			"scaling_over_weighted":    eScal / math.Max(eW, 1e-12),
		},
		Notes: []string{"every scheme reaches passivity; only the weighted QP reaches it without destroying the loaded response"},
	}, nil
}
