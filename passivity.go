package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/passivity"
)

// PassivityViolation is one frequency band where a singular value of the
// model scattering matrix exceeds one.
type PassivityViolation struct {
	FreqPeakHz float64
	SigmaPeak  float64
	FreqLoHz   float64
	FreqHiHz   float64 // +Inf for an unbounded band
}

// infFloat is a float64 whose JSON form survives IEEE infinities:
// encoding/json refuses ±Inf outright, but an unbounded violation or
// certificate band legitimately carries FreqHiHz = +Inf. Infinities (and
// NaN, defensively) encode as the strings "Inf", "-Inf", "NaN"; finite
// values stay plain numbers, so the wire format of bounded bands is
// unchanged.
type infFloat float64

func (f infFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

func (f *infFloat) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		switch s {
		case "Inf", "+Inf":
			*f = infFloat(math.Inf(1))
		case "-Inf":
			*f = infFloat(math.Inf(-1))
		case "NaN":
			*f = infFloat(math.NaN())
		default:
			return fmt.Errorf("infFloat: unknown value %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = infFloat(v)
	return nil
}

// violationWire mirrors PassivityViolation with an Inf-safe upper edge.
type violationWire struct {
	FreqPeakHz float64
	SigmaPeak  float64
	FreqLoHz   float64
	FreqHiHz   infFloat
}

// MarshalJSON encodes the violation with an unbounded band edge
// (FreqHiHz = +Inf) as the JSON string "Inf" — encoding/json rejects IEEE
// infinities, and without this a report crossing the passivityd wire would
// truncate mid-body.
func (v PassivityViolation) MarshalJSON() ([]byte, error) {
	return json.Marshal(violationWire{v.FreqPeakHz, v.SigmaPeak, v.FreqLoHz, infFloat(v.FreqHiHz)})
}

// UnmarshalJSON is the inverse of MarshalJSON: it accepts both plain
// numbers and the "Inf" string form for FreqHiHz.
func (v *PassivityViolation) UnmarshalJSON(data []byte) error {
	var w violationWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*v = PassivityViolation{w.FreqPeakHz, w.SigmaPeak, w.FreqLoHz, float64(w.FreqHiHz)}
	return nil
}

// PassivityReport is the outcome of CheckPassivity.
type PassivityReport struct {
	Passive    bool
	MaxSigma   float64
	MaxFreqHz  float64
	DSigma     float64 // σ_max(D), asymptotic passivity
	Violations []PassivityViolation
	Method     string // "hamiltonian", "sweep" or "adaptive"
	// Samples counts the σ grid evaluations spent (sweep and adaptive
	// methods).
	Samples int
	// Certificate records the certification pipeline's verdict and cost
	// (nil unless certification ran — CheckOptions.Certify or
	// EnforceOptions.Certify — and the method-level check passed).
	Certificate *PassivityCertificate
}

// CertificateStage is the per-stage cost accounting of a certification
// run: which pipeline stage ran, how many frequency intervals it certified
// passive, the largest eigenproblem it solved (0 when it solved none), the
// direct σ evaluations it spent and — for the terminal contour-counter
// stage — the quadrature nodes (determinant evaluations) it spent.
type CertificateStage struct {
	Stage      string
	Certified  int
	Violations int
	EigenDim   int
	Samples    int
	Nodes      int
	// DimGate is the stage's effective eigenproblem dimension cap; Declined
	// counts the intervals the stage refused at that gate.
	DimGate  int
	Declined int
	// Note carries non-fatal diagnostics (e.g. a quadrature that stalled).
	Note string
}

// CertificateBand is one frequency band of a certificate, in Hz
// (FreqHiHz is +Inf for the unbounded tail band).
type CertificateBand struct {
	FreqLoHz, FreqHiHz float64
}

// certBandWire mirrors CertificateBand with an Inf-safe upper edge.
type certBandWire struct {
	FreqLoHz float64
	FreqHiHz infFloat
}

// MarshalJSON encodes the unbounded tail band (FreqHiHz = +Inf) as the
// JSON string "Inf"; see PassivityViolation.MarshalJSON.
func (b CertificateBand) MarshalJSON() ([]byte, error) {
	return json.Marshal(certBandWire{b.FreqLoHz, infFloat(b.FreqHiHz)})
}

// UnmarshalJSON is the inverse of MarshalJSON: it accepts both plain
// numbers and the "Inf" string form for FreqHiHz.
func (b *CertificateBand) UnmarshalJSON(data []byte) error {
	var w certBandWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*b = CertificateBand{w.FreqLoHz, float64(w.FreqHiHz)}
	return nil
}

// PassivityCertificate is the outcome of the staged certification
// pipeline: a partition of the whole frequency axis retired interval by
// interval with rigorous certificates (closed-form tail bounds, the
// σ-anchored Lipschitz sweep, exact or restricted Hamiltonian eigentests,
// and the terminal contour counter). Certified reports full coverage;
// Stage names the stage that settled the verdict. When Certified is false
// on a passive report, the rigorous stages could not cover the whole axis
// (the counter stalled, ran out of nodes, met a crossing cluster it could
// not confirm, or declined past its dimension gate) and the passive
// verdict is best-effort — callers needing a hard guarantee must check
// Certified.
type PassivityCertificate struct {
	Certified bool
	Stage     string
	// EigenDim is the largest eigenproblem dimension solved overall.
	EigenDim int
	// Intervals is the size of the initial axis partition.
	Intervals int
	Stages    []CertificateStage
	// Open lists the frequency bands no stage could settle. With the
	// terminal contour-counter stage in the default pipeline it is nil in
	// practice; a non-nil Open pinpoints exactly where (and why, via the
	// stage Notes) a certificate fell short of full axis coverage.
	Open []CertificateBand
}

// CheckMethod selects the passivity detection algorithm. See the decision
// table in internal/passivity: the Hamiltonian test is exact but O((2nP)³);
// the sweep is a fixed pole-seeded log grid; the adaptive characterizer
// refines a coarse grid only where σ(ω) curvature or pole proximity leaves
// room for a violation, scaling to models far beyond the eigensolve while
// still resolving narrow resonant bands a fixed grid steps over. The
// default, CheckAuto, runs the adaptive characterizer and spends the
// eigensolve only to close a passive verdict on a small model.
type CheckMethod int

const (
	// CheckAuto runs the adaptive characterizer first: a violation it
	// samples is already exact. A passive verdict is closed by the
	// Hamiltonian test when 2·n·P ≤ 400 (the report's Method is then
	// "hamiltonian") and stands on the sampling above that.
	CheckAuto CheckMethod = iota
	// CheckHamiltonian forces the exact Hamiltonian eigenvalue test.
	CheckHamiltonian
	// CheckSweep forces the fixed-grid singular-value sweep.
	CheckSweep
	// CheckAdaptive forces the multi-stage adaptive characterizer.
	CheckAdaptive
)

// CheckOptions tunes passivity detection.
type CheckOptions struct {
	// Method selects the detection algorithm (default CheckAuto).
	Method CheckMethod
	// FreqMin/FreqMax bound the sweep band in Hz (0 = derive from poles).
	FreqMin, FreqMax float64
	// SweepPoints sets the sweep grid density (0 = default 1000).
	SweepPoints int
	// Certify escalates a passive verdict through the staged certification
	// pipeline — closed-form tail-bound interval certificates, then an
	// exact or restricted-band Hamiltonian eigentest — so that "no
	// violation was sampled" becomes "no violation exists". Violations the
	// pipeline proves are appended to the report and flip Passive; the
	// verdict and its cost land in PassivityReport.Certificate.
	Certify bool
}

func (o CheckOptions) internal() passivity.CheckOptions {
	opts := passivity.CheckOptions{
		OmegaMin:    2 * math.Pi * o.FreqMin,
		OmegaMax:    2 * math.Pi * o.FreqMax,
		SweepPoints: o.SweepPoints,
		Certify:     o.Certify,
	}
	switch o.Method {
	case CheckHamiltonian:
		opts.Method = passivity.MethodHamiltonian
	case CheckSweep:
		opts.Method = passivity.MethodSweep
	case CheckAdaptive:
		opts.Method = passivity.MethodAdaptive
	}
	return opts
}

func toPublicCertificate(c *passivity.Certificate) *PassivityCertificate {
	if c == nil {
		return nil
	}
	out := &PassivityCertificate{
		Certified: c.Certified,
		Stage:     c.Stage,
		EigenDim:  c.EigenDim,
		Intervals: c.Intervals,
	}
	for _, s := range c.Stages {
		out.Stages = append(out.Stages, CertificateStage{
			Stage:      s.Stage,
			Certified:  s.Certified,
			Violations: s.Violations,
			EigenDim:   s.EigenDim,
			Samples:    s.Samples,
			Nodes:      s.Nodes,
			DimGate:    s.DimGate,
			Declined:   s.Declined,
			Note:       s.Note,
		})
	}
	for _, iv := range c.Open {
		out.Open = append(out.Open, CertificateBand{
			FreqLoHz: iv.Lo / (2 * math.Pi),
			FreqHiHz: iv.Hi / (2 * math.Pi),
		})
	}
	return out
}

func toPublicReport(rep *passivity.Report) *PassivityReport {
	out := &PassivityReport{
		Passive:     rep.Passive,
		MaxSigma:    rep.MaxSigma,
		MaxFreqHz:   rep.MaxOmega / (2 * math.Pi),
		DSigma:      rep.DSigma,
		Method:      rep.Method,
		Samples:     rep.Samples,
		Certificate: toPublicCertificate(rep.Certificate),
	}
	for _, v := range rep.Violations {
		out.Violations = append(out.Violations, PassivityViolation{
			FreqPeakHz: v.OmegaPeak / (2 * math.Pi),
			SigmaPeak:  v.SigmaPeak,
			FreqLoHz:   v.OmegaLo / (2 * math.Pi),
			FreqHiHz:   v.OmegaHi / (2 * math.Pi),
		})
	}
	return out
}

// CheckPassivity assesses the model: multi-stage adaptive singular-value
// characterization, with a passive verdict on a small model closed by the
// Hamiltonian imaginary-eigenvalue test (see CheckAuto; CheckMethod forces
// one algorithm). It is a thin
// wrapper over the shared default Session with a background context —
// repeated checks of the same pole set reuse its evaluation caches; use
// NewSession for cancellation, progress reporting or an isolated cache
// pool. Results are bitwise identical either way.
func CheckPassivity(m *Macromodel, opts CheckOptions) (*PassivityReport, error) {
	return defaultSession.Check(context.Background(), m, opts)
}

// EnforceOptions tunes passivity enforcement.
type EnforceOptions struct {
	Check CheckOptions
	// MaxIterations bounds the perturbation loop (default 40).
	MaxIterations int
	// Margin pushes constrained singular values to 1 − Margin
	// (default 1e-4).
	Margin float64
	// Weight selects the paper's sensitivity-weighted cost ‖Ξ̃·δS‖₂
	// built from the cascade Gramian (eqs. 18–21). Nil uses the standard
	// L2 cost tr(δC·P·δCᵀ).
	Weight *Weight
	// ClampD permits a one-time singular-value clip of D when the fit is
	// asymptotically non-passive (σmax(D) ≥ 1), which residue
	// perturbation alone cannot repair.
	ClampD bool
	// Certify escalates every convergence of the fast per-sweep check
	// through the certification pipeline; certified violation bands
	// re-enter the loop as constraints instead of being declared passive,
	// and the final verdict carries EnforceReport.Certificate. This closes
	// the sampling-based false pass: a model only leaves the loop with an
	// interval-by-interval certificate of the whole frequency axis.
	Certify bool
}

// internal converts the options to the engine's; Session.enforceWith
// resolves Weight into the model's cost Gramian.
func (o EnforceOptions) internal() passivity.EnforceOptions {
	return passivity.EnforceOptions{
		Check:         o.Check.internal(),
		MaxIterations: o.MaxIterations,
		Margin:        o.Margin,
		ClampD:        o.ClampD,
		Certify:       o.Certify,
	}
}

// EnforceReport summarizes an enforcement run.
type EnforceReport struct {
	Passive    bool
	Iterations int
	// DClamped reports that D was clipped to the passivity boundary first.
	DClamped bool
	// MaxSigmaHistory records the worst singular value seen before each
	// sweep — the paper reports convergence in 9 iterations on its
	// testcase.
	MaxSigmaHistory []float64
	Final           *PassivityReport
	// Certificate is the final certification-pipeline verdict (nil unless
	// EnforceOptions.Certify): which stage certified the enforced model
	// and at what cost.
	Certificate *PassivityCertificate
	// CertifiedRescues counts the convergences where the fast check
	// reported passive but the certification pipeline proved a residual
	// violation that re-entered the loop.
	CertifiedRescues int
}

// ScalingEnforceReport summarizes a residue-scaling enforcement run.
type ScalingEnforceReport struct {
	Passive bool
	// Gamma is the global residue scale factor applied (1 = untouched).
	Gamma float64
	// Checks counts passivity checks spent in the bisection.
	Checks int
	Final  *PassivityReport
}

// EnforcePassivityByScaling makes the model passive by scaling all residues
// with one global factor (bisection) — the crudest guaranteed-passive
// baseline, kept for the enforcement-accuracy ablation. opts.Weight is
// ignored; use EnforcePassivity for the perturbation schemes.
func EnforcePassivityByScaling(m *Macromodel, opts EnforceOptions) (*ScalingEnforceReport, error) {
	rep, err := passivity.EnforceByResidueScaling(m.model, opts.internal())
	if err != nil {
		return nil, err
	}
	return &ScalingEnforceReport{
		Passive: rep.Passive,
		Gamma:   rep.Gamma,
		Checks:  rep.Checks,
		Final:   toPublicReport(rep.Final),
	}, nil
}

// BatchEnforceOptions configures EnforcePassivityBatch.
type BatchEnforceOptions struct {
	// Enforce is the per-model enforcement configuration. With Weight set,
	// every model gets the sensitivity-weighted cost built from its own
	// closed-form cascade Gramian; otherwise the standard L2 cost.
	Enforce EnforceOptions
	// Weights supplies a per-model sensitivity weight, index-aligned with
	// the model slice; a nil entry falls back to Enforce.Weight (or the
	// standard cost when that is nil too). Model libraries fitted against
	// different termination networks carry one weight each this way.
	Weights []*Weight
	// Workers bounds the model-level parallelism (0 = GOMAXPROCS). The
	// per-model results are bitwise independent of the value.
	Workers int
}

// BatchEnforceReport aggregates a batch enforcement run. Reports and
// Errors are index-aligned with the input models.
type BatchEnforceReport struct {
	// Reports holds each model's report. A model that ran out of
	// iterations or was cancelled mid-run keeps its partial report next to
	// its error; it is nil for a model never claimed before a cancellation
	// and for one whose enforcement failed outright.
	Reports []*EnforceReport
	Errors  []error
	Models  int
	Passive int
	Failed  int
	// TotalIterations sums the enforcement sweeps over all models.
	TotalIterations int
	// WorstSigma is the largest final σ_max across the library.
	WorstSigma float64
	// Certified counts models whose final certificate covers the whole
	// frequency axis (zero when Enforce.Certify is off).
	Certified int
	// CertifiedRescues sums, across the library, the convergences where
	// the fast check passed but the certification pipeline proved a
	// residual violation that re-entered the enforcement loop.
	CertifiedRescues int
}

// toPublicEnforceReport converts an internal enforcement report, tolerating
// the partial reports a cancelled run produces (nil Final, no certificate).
func toPublicEnforceReport(rep *passivity.EnforceReport) *EnforceReport {
	if rep == nil {
		return nil
	}
	out := &EnforceReport{
		Passive:          rep.Passive,
		Iterations:       rep.Iterations,
		DClamped:         rep.DClamped,
		MaxSigmaHistory:  rep.MaxSigmaHistory,
		Certificate:      toPublicCertificate(rep.Certificate),
		CertifiedRescues: rep.CertifiedRescues,
	}
	if rep.Final != nil {
		out.Final = toPublicReport(rep.Final)
	}
	return out
}

// EnforcePassivityBatch enforces passivity on a library of macromodels in
// place, sharding models across workers with per-worker reusable
// workspaces and per-model evaluation caches. Every model is attempted;
// per-model failures are reported in Errors without aborting the batch.
// The per-model outcomes are bitwise identical to calling EnforcePassivity
// on each model sequentially with the same options. Like the other root
// functions it delegates to the shared default Session, so a repeated
// sweep over the same library starts with the σ samples of unchanged
// models warm; use Session.EnforceBatch directly for cancellation and
// progress events.
func EnforcePassivityBatch(models []*Macromodel, opts BatchEnforceOptions) (*BatchEnforceReport, error) {
	return defaultSession.EnforceBatch(context.Background(), models, opts)
}

// EnforcePassivity removes passivity violations in place by iterative
// residue perturbation (paper eqs. 8–10). With opts.Weight set it runs the
// paper's sensitivity-weighted scheme; otherwise the standard L2 scheme.
// It is a thin wrapper over the shared default Session with a background
// context (see Session for cancellation, progress and cache control);
// results are bitwise identical either way.
func EnforcePassivity(m *Macromodel, opts EnforceOptions) (*EnforceReport, error) {
	rep, err := defaultSession.Enforce(context.Background(), m, opts)
	if err != nil {
		// Preserve the historical contract of the stateless wrapper: report
		// or error, never both (Session.Enforce returns partial reports
		// alongside convergence errors).
		return nil, err
	}
	return rep, nil
}
