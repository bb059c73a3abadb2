package experiments

// The hypothesis registry: every experiment of the repository restated as
// a falsifiable claim and run under the classification rigor of
// internal/experiments/hypothesis — deterministic invariants on a single
// seed (failure = bug), statistical claims on ≥3 seeds with directional
// consistency and a >20% (or bounded) effect threshold on every seed.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"time"

	repro "repro"
	"repro/internal/core"
	"repro/internal/experiments/hypothesis"
	"repro/internal/passivity"
	"repro/internal/rational"
)

// Hypotheses returns the registry of every experiment: the paper's Figs.
// 1–6 and Ext-A..Ext-D as invariants on one shared lazy Context for cfg
// (each artifact is built once, whichever specs run), then the Ext-E..Ext-H
// claims on their own synthetic libraries.
func Hypotheses(cfg Config) (*hypothesis.Registry, error) {
	c := NewContext(cfg)
	r := hypothesis.NewRegistry()
	for _, s := range []hypothesis.Spec{
		invariant("fig-1-standard-fit",
			"Fig 1: the standard fit of the scattering data completes",
			"Plain Vector Fitting of the PDN scattering data finishes with a finite RMS error (the paper's Fig. 1 baseline model).",
			"fit_rms_error", c.fig1),
		invariant("fig-2-fit-target-impedance",
			"Fig 2: the weighted fit preserves the loaded impedance below 10 MHz",
			"Before enforcement, the sensitivity-weighted fit's worst relative target-impedance error below 10 MHz is no larger than the standard fit's.",
			"weighted_worst_rel_err_below_10MHz", c.fig2),
		invariant("fig-3-sensitivity-weight",
			"Fig 3: the sensitivity spans decades",
			"The first-order sensitivity Ξ(ω) that the weight Ξ̃(s) models falls by at least 20 dB from its low-frequency value to the top of the band.",
			"xi_dynamic_range_db", c.fig3),
		invariant("fig-4-singular-values",
			"Fig 4: weighted enforcement removes every passivity violation",
			"The weighted fit violates passivity (σmax > 1) and weighted enforcement leaves σmax ≤ 1+1e-6 on a 400-point grid to 4 GHz.",
			"max_sigma_after", c.fig4),
		invariant("fig-5-enforced-target-impedance",
			"Fig 5: weighted enforcement keeps the loaded impedance, standard enforcement does not",
			"After passivity enforcement, the standard-cost model's worst relative target-impedance error below 10 MHz is at least 1.5× the sensitivity-weighted model's.",
			"standard_over_weighted_error_ratio", c.fig5),
		invariant("fig-6-weighted-passive-scattering",
			"Fig 6: enforcement does not degrade the scattering fit",
			"The final weighted-passive model matches the scattering data with an RMS error ≤ 0.05.",
			"final_rms_error", c.fig6),
		invariant("ext-a-representation-independence",
			"Ext-A: the weighted flow is independent of the data representation",
			"The weighted flow run from native 50 Ω scattering, 5 Ω-renormalized scattering and admittance-derived 20 Ω data yields passive models whose low-frequency target-impedance errors are finite and within a factor 50 of each other (paper §V).",
			"worst_path_over_best", c.extA),
		invariant("ext-b-transient-verification",
			"Ext-B: transient co-simulation agrees with the frequency domain",
			"Driving both enforced models with their terminations at the worst low-frequency tone reproduces each model's own frequency response within 5% and never generates energy (cumulative energy ≥ −1e-9 J).",
			"worst_td_fd_consistency", c.extB),
		invariant("ext-c-mor-baseline",
			"Ext-C: balanced truncation stays within its error budget",
			"Balanced truncation of an overfit model to the direct fit's realization size, followed by passivity repair, keeps its scattering RMS error within 50× the overfit model's plus the truncation bound (refs [6,7]).",
			"rms_s_reduced", c.extC),
		invariant("ext-d-enforcement-ablation",
			"Ext-D: residue scaling is no better than the weighted QP",
			"Global residue scaling reaches passivity with a scale factor in (0, 1] and a low-frequency target-impedance error no smaller than the weighted QP's.",
			"scaling_over_weighted", c.extD),
		extEAdaptiveEconomy(),
		extFBatchBitwise(),
		extGGramianOracle(),
		extHCertifiedClosure(),
		extHCertifiedOverhead(),
	} {
		if err := r.Register(s); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// invariant wraps a check of the shared Context as a single-seed
// deterministic spec; the seed is unused because the testcase is fixed.
func invariant(id, title, claim, primary string, run func() (hypothesis.Trial, error)) hypothesis.Spec {
	return hypothesis.Spec{
		ID: id, Title: title, Claim: claim, Primary: primary,
		Class: hypothesis.Deterministic, Subtype: hypothesis.Invariant,
		Run: func(int64) (hypothesis.Trial, error) { return run() },
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// extEAdaptiveEconomy — Ext-E: the adaptive characterizer reaches the
// fixed sweep's verdict on >20% fewer σ evaluations, on every seed, and
// enforcement driven by it yields a model the sweep also finds passive.
func extEAdaptiveEconomy() hypothesis.Spec {
	return hypothesis.Spec{
		ID:      "ext-e-adaptive-economy",
		Title:   "Adaptive characterization beats the fixed sweep on sample economy",
		Claim:   "On violating synthetic models the multi-stage adaptive characterizer reaches the same passivity verdict as the 1200-point fixed sweep while spending >20% fewer σ(ω) evaluations, consistently across seeds; enforcement driven by the adaptive check leaves a model the sweep finds passive.",
		Class:   hypothesis.Statistical,
		Subtype: hypothesis.Dominance,
		Primary: "sweep_samples/adaptive_samples",
		Run: func(seed int64) (hypothesis.Trial, error) {
			m, err := passivity.SyntheticModel(passivity.SyntheticOptions{
				Ports: 2, Poles: 40, Seed: seed, PeakGain: 1.1,
			})
			if err != nil {
				return hypothesis.Trial{}, err
			}
			sweepOpts := passivity.CheckOptions{Method: passivity.MethodSweep, SweepPoints: 1200}
			adaptiveOpts := passivity.CheckOptions{Method: passivity.MethodAdaptive}
			sweep, err := passivity.Check(m, sweepOpts)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			adaptive, err := passivity.Check(m, adaptiveOpts)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			if adaptive.Samples == 0 {
				return hypothesis.Trial{}, fmt.Errorf("adaptive characterizer reported zero samples")
			}
			enf, err := passivity.Enforce(m, passivity.EnforceOptions{Check: adaptiveOpts, ClampD: true})
			if err != nil {
				return hypothesis.Trial{}, fmt.Errorf("adaptive-driven enforcement: %w", err)
			}
			recheck, err := passivity.Check(m, sweepOpts)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			agree := sweep.Passive == adaptive.Passive
			enforced := enf.Passive && recheck.Passive
			return hypothesis.Trial{
				Primary: float64(sweep.Samples) / float64(adaptive.Samples),
				Pass:    agree && enforced,
				Metrics: map[string]float64{
					"sweep_samples":      float64(sweep.Samples),
					"adaptive_samples":   float64(adaptive.Samples),
					"sweep_max_sigma":    sweep.MaxSigma,
					"adaptive_max_sigma": adaptive.MaxSigma,
					"verdict_agreement":  b2f(agree),
					"enforce_iterations": float64(enf.Iterations),
					"enforced_passive":   b2f(enforced),
				},
			}, nil
		},
	}
}

// extFBatchBitwise — Ext-F: sharded batch enforcement is bitwise identical
// to sequential per-model enforcement, iteration for iteration. Each arm
// runs on a fresh Session (EnforcePassivity and EnforcePassivityBatch are
// thin wrappers over Session.Enforce and Session.EnforceBatch), so the
// batch arm starts as cold as the sequential one.
func extFBatchBitwise() hypothesis.Spec {
	return hypothesis.Spec{
		ID:      "ext-f-batch-bitwise",
		Title:   "Batch enforcement is bitwise identical to sequential",
		Class:   hypothesis.Deterministic,
		Subtype: hypothesis.Invariant,
		Claim:   "EnforcePassivityBatch produces residue matrices bitwise identical to sequential EnforcePassivity on the same library, for every model, in the same total number of iterations, with the whole library enforced passive and no failures.",
		Primary: "bitwise_mismatches",
		Run: func(seed int64) (hypothesis.Trial, error) {
			const libSize = 4
			ctx := context.Background()
			opts := repro.EnforceOptions{Check: repro.CheckOptions{Method: repro.CheckAdaptive}, ClampD: true}
			seq, err := violatingMacromodels(libSize, seed*1000)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			sess := repro.NewSession()
			passive, seqIters := libSize, 0
			for i, m := range seq {
				rep, err := sess.Enforce(ctx, m, opts)
				if err != nil {
					return hypothesis.Trial{}, fmt.Errorf("sequential model %d: %w", i, err)
				}
				if !rep.Passive {
					passive--
				}
				seqIters += rep.Iterations
			}
			bat, err := violatingMacromodels(libSize, seed*1000)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			brep, err := repro.NewSession().EnforceBatch(ctx, bat, repro.BatchEnforceOptions{Enforce: opts, Workers: 4})
			if err != nil {
				return hypothesis.Trial{}, err
			}
			series := &hypothesis.Series{
				Name:    "extF_per_model_iterations",
				XLabel:  "model_index",
				Order:   []string{"iterations", "final_sigma"},
				Columns: map[string][]float64{},
			}
			mismatches, err := jsonMismatches(seq, bat)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			for i := range bat {
				if err := brep.Errors[i]; err != nil {
					return hypothesis.Trial{}, fmt.Errorf("batch model %d: %w", i, err)
				}
				series.X = append(series.X, float64(i))
				series.Columns["iterations"] = append(series.Columns["iterations"], float64(brep.Reports[i].Iterations))
				series.Columns["final_sigma"] = append(series.Columns["final_sigma"], brep.Reports[i].Final.MaxSigma)
			}
			return hypothesis.Trial{
				Primary: float64(mismatches),
				Pass: mismatches == 0 && passive == libSize && brep.Passive == libSize &&
					brep.Failed == 0 && brep.TotalIterations == seqIters,
				Metrics: map[string]float64{
					"library_size":       libSize,
					"bitwise_mismatches": float64(mismatches),
					"sequential_passive": float64(passive),
					"batch_passive":      float64(brep.Passive),
					"batch_failed":       float64(brep.Failed),
					"sequential_iters":   float64(seqIters),
					"batch_iterations":   float64(brep.TotalIterations),
				},
				Series: []*hypothesis.Series{series},
			}, nil
		},
	}
}

// violatingMacromodels is violatingLibrary built through the public
// SyntheticMacromodel: the same models, wrapped for the Session API.
func violatingMacromodels(size int, seed0 int64) ([]*repro.Macromodel, error) {
	lib := make([]*repro.Macromodel, size)
	for i := range lib {
		m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: 2, Poles: 24, Seed: seed0 + int64(i), PeakGain: 1.1,
		})
		if err != nil {
			return nil, err
		}
		lib[i] = m
	}
	return lib, nil
}

// jsonMismatches counts the index-aligned models of a and b whose JSON
// encodings differ — the encoding carries every pole, residue and D entry
// at full precision, so equal bytes mean bitwise equal models.
func jsonMismatches(a, b []*repro.Macromodel) (int, error) {
	n := 0
	for i := range a {
		ja, err := json.Marshal(a[i])
		if err != nil {
			return 0, err
		}
		jb, err := json.Marshal(b[i])
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(ja, jb) {
			n++
		}
	}
	return n, nil
}

// publicWeight carries a rational weight into the Session API through the
// documented weight JSON form (repro.ReadWeight): angular-frequency poles
// and residues as [re, im] pairs plus the scalar d.
func publicWeight(w *rational.Model) (*repro.Weight, error) {
	var doc struct {
		Poles    [][2]float64 `json:"poles"`
		Residues [][2]float64 `json:"residues"`
		D        float64      `json:"d"`
	}
	for _, p := range w.Poles {
		doc.Poles = append(doc.Poles, [2]float64{real(p), imag(p)})
	}
	for _, r := range w.ScalarResidues() {
		doc.Residues = append(doc.Residues, [2]float64{real(r), imag(r)})
	}
	doc.D = w.D.At(0, 0)
	blob, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return repro.ReadWeight(bytes.NewReader(blob))
}

// extGGramianOracle — Ext-G: the closed-form cascade Gramian matches the
// dense Lyapunov oracle to near machine precision, and enforcement with
// either cost lands on the same passive models.
func extGGramianOracle() hypothesis.Spec {
	return hypothesis.Spec{
		ID:      "ext-g-gramian-oracle",
		Title:   "Closed-form cascade Gramian matches the dense Lyapunov oracle",
		Class:   hypothesis.Deterministic,
		Subtype: hypothesis.Invariant,
		Claim:   "rational-model weighted Gramians from the closed-form cascade construction agree with the dense statespace Lyapunov oracle within 1e-10 relative Frobenius error at model orders 100, 250 and 500; weighted enforcement with the closed-form cost and with the dense-oracle cost agrees within 1e-6, and weighted batch enforcement is bitwise identical to sequential.",
		Primary: "worst_rel_frobenius_err",
		Run: func(seed int64) (hypothesis.Trial, error) {
			rng := rand.New(rand.NewSource(seed))
			weight, err := rational.RandomScalarWeight(rng, 8)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			series := &hypothesis.Series{
				Name:    "extG_gramian_scaling",
				XLabel:  "model_order_np",
				Order:   []string{"closed_ms", "dense_ms", "speedup", "rel_frob_err"},
				Columns: map[string][]float64{},
			}
			worst := 0.0
			for _, np := range []int{100, 250, 500} {
				poles := rational.RandomStablePoles(rng, np)
				model, err := rational.NewScalar(poles, make([]complex128, len(poles)), 0)
				if err != nil {
					return hypothesis.Trial{}, err
				}
				t0 := time.Now()
				fast, err := core.WeightedGramian(model, weight)
				if err != nil {
					return hypothesis.Trial{}, err
				}
				closedMS := float64(time.Since(t0).Microseconds()) / 1e3
				t0 = time.Now()
				dense, err := core.WeightedGramianDense(model, weight)
				if err != nil {
					return hypothesis.Trial{}, err
				}
				denseMS := float64(time.Since(t0).Microseconds()) / 1e3
				var num, den float64
				for i := 0; i < dense.Rows; i++ {
					for j := 0; j < dense.Cols; j++ {
						d := fast.At(i, j) - dense.At(i, j)
						num += d * d
						den += dense.At(i, j) * dense.At(i, j)
					}
				}
				rel := math.Sqrt(num / den)
				worst = math.Max(worst, rel)
				series.X = append(series.X, float64(np))
				series.Columns["closed_ms"] = append(series.Columns["closed_ms"], closedMS)
				series.Columns["dense_ms"] = append(series.Columns["dense_ms"], denseMS)
				series.Columns["speedup"] = append(series.Columns["speedup"], denseMS/math.Max(closedMS, 1e-6))
				series.Columns["rel_frob_err"] = append(series.Columns["rel_frob_err"], rel)
			}

			// Enforcement equivalence: one violating library enforced with
			// the closed-form cost, with the dense-oracle cost, and through
			// the weighted batch path.
			const libSize = 4
			base := passivity.EnforceOptions{Check: passivity.CheckOptions{Method: passivity.MethodAdaptive}}
			closedLib, err := violatingLibrary(libSize, seed*1000+500)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			for i, m := range closedLib {
				if _, err := core.EnforceWeighted(m, weight, base); err != nil {
					return hypothesis.Trial{}, fmt.Errorf("closed-cost enforcement of model %d: %w", i, err)
				}
			}
			denseLib, err := violatingLibrary(libSize, seed*1000+500)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			for i, m := range denseLib {
				opts := base
				if opts.CostGramian, err = core.WeightedGramianDense(m, weight); err != nil {
					return hypothesis.Trial{}, err
				}
				if _, err := passivity.Enforce(m, opts); err != nil {
					return hypothesis.Trial{}, fmt.Errorf("dense-cost enforcement of model %d: %w", i, err)
				}
			}
			maxDev := 0.0
			for i := range closedLib {
				for _, w := range []float64{0.3, 2.1, 17, 140, 2500} {
					a, b := closedLib[i].Eval(w), denseLib[i].Eval(w)
					for e := range a.Data {
						maxDev = math.Max(maxDev, cmplx.Abs(a.Data[e]-b.Data[e]))
					}
				}
			}
			// Weighted batch arm: the same weight through the public API,
			// sequential Session.Enforce against Session.EnforceBatch.
			pw, err := publicWeight(weight)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			for _, f := range []float64{0.05, 0.3, 2.1, 17, 140, 2500} {
				z := weight.EvalEntry(0, 0, 2*math.Pi*f)
				if got, want := pw.Eval(f), math.Hypot(real(z), imag(z)); got != want {
					return hypothesis.Trial{}, fmt.Errorf("JSON weight evaluates %v at %g Hz, rational weight %v", got, f, want)
				}
			}
			ctx := context.Background()
			wopts := repro.EnforceOptions{Check: repro.CheckOptions{Method: repro.CheckAdaptive}, Weight: pw}
			seqLib, err := violatingMacromodels(libSize, seed*1000+500)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			sess := repro.NewSession()
			for i, m := range seqLib {
				if _, err := sess.Enforce(ctx, m, wopts); err != nil {
					return hypothesis.Trial{}, fmt.Errorf("sequential weighted model %d: %w", i, err)
				}
			}
			batchLib, err := violatingMacromodels(libSize, seed*1000+500)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			brep, err := repro.NewSession().EnforceBatch(ctx, batchLib, repro.BatchEnforceOptions{Enforce: wopts, Workers: 4})
			if err != nil {
				return hypothesis.Trial{}, err
			}
			for i, err := range brep.Errors {
				if err != nil {
					return hypothesis.Trial{}, fmt.Errorf("weighted batch model %d: %w", i, err)
				}
			}
			mismatches, err := jsonMismatches(seqLib, batchLib)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			return hypothesis.Trial{
				Primary: worst,
				Pass:    worst <= 1e-10 && maxDev <= 1e-6 && mismatches == 0,
				Metrics: map[string]float64{
					"worst_rel_frobenius_err": worst,
					"enforce_max_abs_s_dev":   maxDev,
					"batch_mismatches":        float64(mismatches),
				},
				Series: []*hypothesis.Series{series},
			}, nil
		},
	}
}

// violatingLibrary builds size violating 2-port 24-pole synthetic models
// with consecutive seeds from seed0.
func violatingLibrary(size int, seed0 int64) ([]*rational.Model, error) {
	lib := make([]*rational.Model, size)
	for i := range lib {
		m, err := passivity.SyntheticModel(passivity.SyntheticOptions{
			Ports: 2, Poles: 24, Seed: seed0 + int64(i), PeakGain: 1.1,
		})
		if err != nil {
			return nil, err
		}
		lib[i] = m
	}
	return lib, nil
}

// extHCorpus builds the Ext-H certification corpus: 100 random 10-pole
// violating models, every fourth carrying the narrow off-resonance
// "shoulder" band the stage-capped adaptive sampling steps over.
func extHCorpus(size int) ([]*rational.Model, error) {
	models := make([]*rational.Model, size)
	for i := range models {
		opts := passivity.SyntheticOptions{Ports: 2, Poles: 10, Seed: int64(9000 + i), PeakGain: 0.45}
		if i%4 == 0 {
			opts.NarrowBand = true
			opts.PeakGain = 0.4
		}
		m, err := passivity.SyntheticModel(opts)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	return models, nil
}

// extHEnforce runs the weighted Ext-H enforcement at the stage-capped
// adaptive operating point (the documented false-pass configuration),
// model by model.
func extHEnforce(models []*rational.Model, certify bool) ([]*passivity.EnforceReport, time.Duration, error) {
	rng := rand.New(rand.NewSource(1404))
	weight, err := rational.RandomScalarWeight(rng, 4)
	if err != nil {
		return nil, 0, err
	}
	opts := passivity.EnforceOptions{
		Check:   passivity.CheckOptions{Method: passivity.MethodAdaptive, AdaptiveMaxStages: 6},
		Certify: certify,
	}
	reps := make([]*passivity.EnforceReport, len(models))
	t0 := time.Now()
	for i, m := range models {
		if reps[i], err = core.EnforceWeighted(m, weight, opts); err != nil {
			return nil, 0, fmt.Errorf("model %d: %w", i, err)
		}
	}
	return reps, time.Since(t0), nil
}

// extHCertifiedClosure — the certified-enforcement claim on the Ext-H
// corpus: enforced at the stage-capped operating point without
// certification, some models still fail the dense Hamiltonian oracle
// (escapes); with the counter-terminated certification pipeline every
// certificate covers the whole axis (no Open intervals), nothing escapes,
// and the pipeline rescues at least as many convergences as escaped.
func extHCertifiedClosure() hypothesis.Spec {
	return hypothesis.Spec{
		ID:      "ext-h-certified-closure",
		Title:   "Certified enforcement settles every interval (Open == nil) with zero escapes",
		Class:   hypothesis.Deterministic,
		Subtype: hypothesis.Invariant,
		Claim:   "On the Ext-H 100-model weighted-enforcement corpus, every certificate returned by the counter-terminated pipeline is Certified with zero Open intervals, and the dense Hamiltonian oracle rejects none of the enforced models; enforced without certification the same corpus has oracle escapes, and the certified run rescues at least as many convergences as there are escapes.",
		Primary: "open_intervals_plus_escapes",
		Run: func(int64) (hypothesis.Trial, error) {
			const libSize = 100
			plainLib, err := extHCorpus(libSize)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			_, plainElapsed, err := extHEnforce(plainLib, false)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			certLib, err := extHCorpus(libSize)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			certReps, certElapsed, err := extHEnforce(certLib, true)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			series := &hypothesis.Series{
				Name:    "extH_escape_rate",
				XLabel:  "model_index",
				Order:   []string{"oracle_sigma_uncertified", "oracle_sigma_certified", "rescues"},
				Columns: map[string][]float64{},
			}
			oracle := func(m *rational.Model) (*passivity.Report, error) {
				return passivity.Check(m, passivity.CheckOptions{Method: passivity.MethodHamiltonian})
			}
			openIntervals, uncertified, escapes, plainEscapes, nodes, rescues := 0, 0, 0, 0, 0, 0
			for i, res := range certReps {
				rescues += res.CertifiedRescues
				cert := res.Certificate
				if cert == nil || !cert.Certified {
					uncertified++
				}
				if cert != nil {
					openIntervals += len(cert.Open)
					for _, st := range cert.Stages {
						nodes += st.Nodes
					}
				}
				plainOracle, err := oracle(plainLib[i])
				if err != nil {
					return hypothesis.Trial{}, err
				}
				certOracle, err := oracle(certLib[i])
				if err != nil {
					return hypothesis.Trial{}, err
				}
				if !plainOracle.Passive {
					plainEscapes++
				}
				if !certOracle.Passive {
					escapes++
				}
				series.X = append(series.X, float64(i))
				series.Columns["oracle_sigma_uncertified"] = append(series.Columns["oracle_sigma_uncertified"], plainOracle.MaxSigma)
				series.Columns["oracle_sigma_certified"] = append(series.Columns["oracle_sigma_certified"], certOracle.MaxSigma)
				series.Columns["rescues"] = append(series.Columns["rescues"], float64(res.CertifiedRescues))
			}
			return hypothesis.Trial{
				Primary: float64(openIntervals + escapes),
				Pass: openIntervals == 0 && escapes == 0 && uncertified == 0 &&
					plainEscapes > 0 && rescues >= plainEscapes,
				Metrics: map[string]float64{
					"library_size":        libSize,
					"open_intervals":      float64(openIntervals),
					"uncertified":         float64(uncertified),
					"oracle_escapes":      float64(escapes),
					"escaped_uncertified": float64(plainEscapes),
					"counter_nodes":       float64(nodes),
					"certified_rescues":   float64(rescues),
					"uncertified_ms":      float64(plainElapsed.Milliseconds()),
					"certified_ms":        float64(certElapsed.Milliseconds()),
				},
				Series: []*hypothesis.Series{series},
			}, nil
		},
	}
}

// extHCertifiedOverhead — the certification-cost claim on the BENCH_4
// steady-state workload: enforcement of already-passive models (the
// library-service steady state) with the counter-terminated full-axis
// certificate costs at most 25% more wall-clock than without it. On the
// violating corpus certify=true also re-enforces rescued bands — extra
// enforcement work, not certificate cost — so the bound is measured where
// BENCH_4.json measured it: models whose enforcement converges immediately
// and whose entire added cost is the certificate.
func extHCertifiedOverhead() hypothesis.Spec {
	return hypothesis.Spec{
		ID:        "ext-h-certified-overhead",
		Title:     "Certification overhead stays within 25% on the steady-state path",
		Class:     hypothesis.Statistical,
		Subtype:   hypothesis.Bounded,
		Claim:     "Enforcing a library of truly passive models with full-axis certification (counter-terminated pipeline) costs at most 25% more wall-clock than the same run without certification, on every seed.",
		Primary:   "certification_overhead",
		Threshold: 0.25,
		Run: func(seed int64) (hypothesis.Trial, error) {
			// BENCH_4 sizing: nP ≥ 500 keeps the pipeline on the large-model
			// branch, and the generous passivity headroom (low peak gain)
			// keeps every seed on the eigensolve-free tail-bound + Lipschitz
			// path — the steady state the ≤25% bound is about.
			const libSize = 8
			lib := make([]*rational.Model, libSize)
			for i := range lib {
				m, err := passivity.SyntheticModel(passivity.SyntheticOptions{
					Ports: 2, Poles: 250 + 125*(i%3), Seed: seed*100 + int64(i),
					PeakGain: 0.04, DSigma: 0.6,
				})
				if err != nil {
					return hypothesis.Trial{}, err
				}
				lib[i] = m
			}
			// Each model is enforced plain and certified back to back on
			// fresh copies, the arm that goes first alternating by model
			// index, and the time is summed per arm: host load drifting
			// over the run then lands on both arms alike instead of on
			// whichever arm ran second. The pairs repeat timingReps times,
			// which averages out contention bursts on a shared host.
			const timingReps = 5
			enforce := func(i int, m *rational.Model, certify bool) (time.Duration, bool, error) {
				opts := passivity.EnforceOptions{
					Check:   passivity.CheckOptions{Method: passivity.MethodAdaptive},
					Certify: certify,
				}
				m = m.Clone()
				runtime.GC() // neither arm pays for the other's garbage
				t0 := time.Now()
				rep, err := passivity.Enforce(m, opts)
				elapsed := time.Since(t0)
				if err != nil {
					return 0, false, fmt.Errorf("model %d: %w", i, err)
				}
				if !rep.Passive {
					return 0, false, fmt.Errorf("model %d unexpectedly non-passive", i)
				}
				return elapsed, rep.Certificate != nil && rep.Certificate.Certified, nil
			}
			var elapsed [2]time.Duration // plain, certified
			certified := 0
			for i, m := range lib {
				for rep := 0; rep < timingReps; rep++ {
					for k := 0; k < 2; k++ {
						arm := (i + k) % 2 // 1 = certified
						d, ok, err := enforce(i, m, arm == 1)
						if err != nil {
							return hypothesis.Trial{}, err
						}
						elapsed[arm] += d
						if arm == 1 && rep == 0 && ok {
							certified++
						}
					}
				}
			}
			plainElapsed, certElapsed := elapsed[0], elapsed[1]
			overhead := certElapsed.Seconds()/math.Max(plainElapsed.Seconds(), 1e-9) - 1
			return hypothesis.Trial{
				Primary: overhead,
				Pass:    overhead <= 0.25,
				Metrics: map[string]float64{
					"library_size":     libSize,
					"certified_models": float64(certified),
					"uncertified_ms":   float64(plainElapsed.Milliseconds()),
					"certified_ms":     float64(certElapsed.Milliseconds()),
				},
			}, nil
		},
	}
}
