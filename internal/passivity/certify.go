package passivity

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
	"repro/internal/rational"
)

// This file implements the staged certification pipeline: a chain of
// Certifier stages that together turn "no violation was sampled" into "no
// violation exists". The fast characterizers (sweep, adaptive) can step
// over a residual band — the ROADMAP's σ = 1.0000014 false pass — because
// they only ever sample σ(ω). The pipeline instead partitions the whole
// frequency axis [0, ∞) into intervals and retires each one with a
// rigorous certificate, escalating from cheap to exact:
//
//	tail-bound              closed-form interval bound, no σ evaluations
//	hamiltonian             full imaginary-eigenvalue test (small N = 2nP)
//	lipschitz               σ-anchored certified sweep (large N)
//	hamiltonian-restricted  level-γ eigentest on a reduced model built from
//	                        the poles that matter inside one interval
//	contour-counter         argument-principle eigenvalue count on the
//	                        intervals still open (counter.go)
//
// Stage names are recorded in the Certificate so reports and the CLI can
// say which stage settled the verdict and at what cost.

// Stage names recorded in Certificate.Stage and StageCost.Stage.
const (
	// StageTailBound is the closed-form per-interval pole-tail bound.
	StageTailBound = "tail-bound"
	// StageLipschitz is the σ-anchored certified sweep (derivative-bounded
	// midpoint samples).
	StageLipschitz = "lipschitz"
	// StageHamiltonian is the full imaginary-eigenvalue test.
	StageHamiltonian = "hamiltonian"
	// StageRestricted is the level-γ eigentest on per-interval reduced models.
	StageRestricted = "hamiltonian-restricted"
	// StageCounter (declared in counter.go) is the terminal contour-integral
	// eigenvalue counter.
)

// CertInterval is one frequency interval [Lo, Hi] (rad/s) the pipeline
// still has to resolve. Lo may be 0 and Hi may be +Inf.
type CertInterval struct {
	Lo, Hi float64
}

// StageCost records what one pipeline stage did and what it spent.
type StageCost struct {
	Stage      string
	Certified  int    // intervals this stage certified passive
	Violations int    // violations this stage proved on the full model
	EigenDim   int    // largest eigenproblem dimension solved (0 = none)
	Samples    int    // direct σ(ω) evaluations spent (peak polishing excluded)
	Nodes      int    // contour-quadrature determinant evaluations (counter stage)
	DimGate    int    // effective dimension gate the stage enforced (0 = ungated)
	Declined   int    // open intervals the stage declined at its dimension gate
	Note       string // non-fatal diagnostics (e.g. an eigensolve that bailed)
}

// Certificate is the outcome of the certification pipeline. Certified
// reports that every interval of the axis partition carries a rigorous
// certificate; when it is false with no Violations, the Open intervals
// exhausted the rigorous stages — the counter stalled, ran out of nodes,
// met a crossing cluster it could not confirm, or declined at
// counterMaxDim — and the verdict is best-effort.
type Certificate struct {
	Certified  bool
	Stage      string // stage that settled the verdict (certified or found the violations)
	Violations []Violation
	Stages     []StageCost
	EigenDim   int            // largest eigenproblem dimension solved overall
	Intervals  int            // intervals in the initial axis partition
	Open       []CertInterval // intervals no rigorous stage could retire
}

const (
	// fullMaxDim is the largest Hamiltonian dimension N = 2·n·P the
	// default pipeline certifies with the full eigentest. Beyond it the
	// pipeline switches to restricted-band certification. The gate
	// deliberately stays at the dense-QR frontier: the full eigentest
	// needs the complete spectrum, which the structured determinant kernel
	// does not accelerate — the counter gate is the one it lifts. It is
	// not hamiltonianMaxDim: Auto's exact close stops at 400, and the
	// models between the two gates certify with the full eigentest.
	fullMaxDim = 600
	// restrictedMaxDim caps the per-interval reduced eigenproblem
	// dimension 2·n_near·P of the restricted stage.
	restrictedMaxDim = 1200
	// tailMaxIntervals bounds the tail-bound stage's subdivision work
	// (interval evaluations).
	tailMaxIntervals = 4096
	// tailBudget is the fraction of the passivity headroom (limit −
	// σmax(D)) the restricted stage may allocate to truncated far-pole
	// tails. Smaller values keep more poles in the reduced models.
	tailBudget = 0.25
	// sweepMaxSamples caps the σ evaluations of the Lipschitz certified
	// sweep (they route through the run's EvalCache).
	sweepMaxSamples = 20000
	// counterMaxNodes caps the determinant evaluations the terminal
	// contour-counter stage spends per certification run. One node is an
	// O(N·p²) structured factorization — cheap enough that the sharper
	// structured proximity alarm, which bisects harder near eigenvalue
	// clusters than the dense LU min-pivot did, is worth paying for (the
	// old dense-LU cap was 50000). Intervals whose quadrature exhausts the
	// budget stay open with a Note.
	counterMaxNodes = 250000
	// counterMaxDim caps the Hamiltonian dimension N = 2·n·P the counter
	// stage will walk contours around. The structured diagonal-plus-low-
	// rank kernel prices one quadrature node at O(N·p²) with p = 2·ports —
	// the dense O(N³) complex LU pinned the old cap at 600 — so the gate
	// tracks node affordability, not factorization cost. Larger models keep
	// their unsettled intervals open with a Note and a Declined count.
	counterMaxDim = 6000
)

// certContext carries the per-run state every stage shares: the model, its
// pole features (index-aligned with model.Poles), the passivity limit, the
// evaluation cache of the surrounding check or enforcement run, and the
// run's workspaces.
type certContext struct {
	ctx    context.Context
	model  *rational.Model
	feats  []poleFeature // index-aligned, NOT sorted
	dSigma float64
	limit  float64
	relTol float64         // width floor of the subdividing stages
	cache  *EvalCache      // full-model σ evaluations (may be nil)
	ws     *checkWorkspace // full-model workspace
	redWS  checkWorkspace  // reduced-model scratch (never touches the cache)
	scan   *boundScanner   // resonance-sorted outward bound evaluator
}

// Certifier is one composable stage of the certification pipeline. The
// interface is sealed (stages share internal evaluation state); compose
// the built-in stages with NewPipeline or use DefaultPipeline.
type Certifier interface {
	// Name identifies the stage in certificates, reports and CLI output.
	Name() string
	// certify examines the open intervals and returns the ones it could not
	// retire, the violations it proved on the full model, and its cost.
	certify(cc *certContext, open []CertInterval) ([]CertInterval, []Violation, StageCost, error)
}

// Pipeline is an ordered Certifier chain; each stage sees only the
// intervals earlier stages left open, and the run stops at the first stage
// that proves a violation (enforcement re-enters anyway) or empties the
// open set.
type Pipeline struct {
	Stages []Certifier
}

// NewPipeline chains the given stages in order.
func NewPipeline(stages ...Certifier) *Pipeline { return &Pipeline{Stages: stages} }

// TailBoundCertifier returns the closed-form interval-bound stage.
func TailBoundCertifier() Certifier { return tailStage{} }

// LipschitzCertifier returns the σ-anchored certified-sweep stage.
func LipschitzCertifier() Certifier { return lipschitzStage{} }

// HamiltonianCertifier returns the full imaginary-eigenvalue stage.
func HamiltonianCertifier() Certifier { return fullStage{} }

// RestrictedHamiltonianCertifier returns the per-interval reduced-model
// level-γ eigentest stage.
func RestrictedHamiltonianCertifier() Certifier { return restrictedStage{} }

// DefaultPipeline builds the stage chain for the model's size: the
// closed-form tail bound first always; then the full eigentest when
// N = 2·n·P ≤ 600 (cheap and exact in one shot), or — beyond it —
// the Lipschitz certified sweep (which exploits the residue phase
// cancellation the magnitude bounds cannot see) with the restricted
// eigentest picking up the near-boundary slivers the sweep leaves open.
// Both chains end with the contour-integral counter stage, which
// rigorously retires whatever survives — every certificate finishes with
// Open == nil unless the quadrature stalls or meets a crossing cluster it
// cannot confirm.
func DefaultPipeline(model *rational.Model) *Pipeline {
	if 2*model.NumPoles()*model.Ports() <= fullMaxDim {
		return NewPipeline(TailBoundCertifier(), HamiltonianCertifier(), CounterCertifier())
	}
	return NewPipeline(TailBoundCertifier(), LipschitzCertifier(), RestrictedHamiltonianCertifier(), CounterCertifier())
}

// Certify runs the default certification pipeline over the whole frequency
// axis. opts supplies the context and the evaluation cache of the
// surrounding run (both optional; the zero value works).
func Certify(model *rational.Model, opts CheckOptions) (*Certificate, error) {
	return DefaultPipeline(model).Run(model, opts)
}

// Run executes the pipeline. See Certify.
func (p *Pipeline) Run(model *rational.Model, opts CheckOptions) (*Certificate, error) {
	opts.defaults(model)
	opts.Cache.bind(model)
	ws := getWorkspace()
	defer workspaces.Put(ws)
	cc := &certContext{
		ctx:    opts.Ctx,
		model:  model,
		dSigma: mat.MaxSingularValue(mat.RealToComplex(model.D)),
		limit:  1 + passivityTol,
		relTol: adaptiveRelTol,
		cache:  opts.Cache,
		ws:     ws,
	}
	if cc.dSigma > cc.limit {
		return nil, fmt.Errorf("%w (σmax(D)=%g)", ErrAsymptoticViolation, cc.dSigma)
	}
	cc.feats = make([]poleFeature, 0, len(model.Poles))
	for k := range model.Poles {
		cc.feats = append(cc.feats, poleFeatureOf(model, k, cc.ws))
	}
	sorted := append([]poleFeature(nil), cc.feats...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].wr < sorted[b].wr })
	cc.scan = newBoundScanner(sorted)

	open := axisPartition(model)
	cert := &Certificate{Intervals: len(open), Stage: StageTailBound}
	for _, st := range p.Stages {
		if len(open) == 0 {
			break
		}
		// Stages can be eigensolve-heavy; the pipeline is cancellable at
		// stage granularity.
		if err := ctxErr(opts.Ctx); err != nil {
			return nil, err
		}
		rem, viols, cost, err := st.certify(cc, open)
		if err != nil {
			return nil, err
		}
		cert.Stages = append(cert.Stages, cost)
		opts.emit(ProgressEvent{
			Kind:     ProgressCertStage,
			Stage:    st.Name(),
			Samples:  cost.Samples,
			Nodes:    cost.Nodes,
			Declined: cost.Declined,
		})
		if cost.EigenDim > cert.EigenDim {
			cert.EigenDim = cost.EigenDim
		}
		if len(viols) > 0 {
			cert.Violations = append(cert.Violations, viols...)
			cert.Stage = st.Name()
			return cert, nil
		}
		if len(rem) < len(open) || len(rem) == 0 {
			cert.Stage = st.Name()
		}
		open = rem
	}
	cert.Open = open
	cert.Certified = len(open) == 0
	return cert, nil
}

// axisPartition splits [0, ∞) at the model's pole resonances: inside one
// cell the per-pole distance terms of the tail bound are monotone or
// convex, which is what makes the closed-form interval bound sharp.
func axisPartition(model *rational.Model) []CertInterval {
	var brk []float64
	for _, p := range model.Poles {
		wr := math.Abs(imag(p))
		if wr == 0 {
			wr = math.Abs(real(p))
		}
		if wr > 0 {
			brk = append(brk, wr)
		}
	}
	sortFloats(brk)
	return bandsBetween(0, math.Inf(1), dedupeSorted(brk))
}

// boundScanner evaluates the closed-form interval bounds over a
// resonance-sorted pole feature list, scanning outward from the interval
// so both bounds exit early: upward once the partial sum crosses the cap
// (cannot certify), downward once the partial plus a rigorous bound on the
// not-yet-visited pole mass drops below it (certifies without touching the
// far poles). Shared by the adaptive characterizer and the certification
// pipeline.
type boundScanner struct {
	feats []poleFeature // sorted ascending by wr
	wrs   []float64     // feats[i].wr
	pre   []float64     // pre[i] = Σ_{j<i} ‖R_j‖₂
}

// newBoundScanner builds the scanner; feats must be sorted ascending by
// resonance frequency (the slice is retained, not copied).
func newBoundScanner(feats []poleFeature) *boundScanner {
	s := &boundScanner{
		feats: feats,
		wrs:   make([]float64, len(feats)),
		pre:   make([]float64, len(feats)+1),
	}
	for i, f := range feats {
		s.wrs[i] = f.wr
		s.pre[i+1] = s.pre[i] + f.rnorm
	}
	return s
}

// tailBound bounds σ(S(jω)) over [w0, w1]:
//
//	σ(S(jω)) ≤ σ(D) + Σ_k ‖R_k‖₂/|jω − p_k| ≤ σ(D) + Σ_k ‖R_k‖₂/√(γ_k² + d_k(ω)²)
//
// and tightens the plain per-term bound by accounting for pole-pair
// interactions: a term whose resonance keeps at least γ_k distance from
// the whole interval is convex there, so the SUM of all such far terms
// attains its maximum at an interval endpoint — two poles on opposite
// sides of the interval cannot both attain their per-term suprema at the
// same frequency, which is exactly the slack the plain bound wastes (and
// what let medium-Q pole clusters with collectively violating tails evade
// certification). Near terms (resonance inside or within γ_k of the
// interval) fall back to their per-term suprema. The result is never
// larger than the plain bound when the scan runs to completion; with a
// finite limit it exits early in either direction and callers must only
// use the comparison against limit.
func (s *boundScanner) tailBound(dSigma, limit, w0, w1 float64) float64 {
	wrs, feats, pre := s.wrs, s.feats, s.pre
	n := len(feats)
	bounded, finite := !math.IsInf(w1, 1), !math.IsInf(limit, 1)
	sumLo, sumHi := dSigma, dSigma
	near := 0.0
	// Poles resonating inside the interval: distance 0, per-term supremum.
	lo := sort.SearchFloat64s(wrs, w0)
	r := lo
	for r < n && wrs[r] <= w1 {
		f := &feats[r]
		near += f.rnorm / math.Sqrt(f.gamma*f.gamma)
		r++
		if max(sumLo, sumHi)+near > limit {
			return max(sumLo, sumHi) + near
		}
	}
	l := lo - 1
	for l >= 0 || r < n {
		dl, dr := math.Inf(1), math.Inf(1)
		if l >= 0 {
			dl = w0 - wrs[l]
		}
		if r < n {
			dr = wrs[r] - w1
		}
		// Everything not yet visited sits at least dl (left) / dr (right)
		// away from the interval, so it adds at most mass/d to either
		// endpoint sum. Only valid as an early exit against a finite limit
		// — the full scan is required for the exact tightened value.
		if finite {
			rem := 0.0
			if l >= 0 {
				rem += pre[l+1] / dl
			}
			if r < n {
				rem += (pre[n] - pre[r]) / dr
			}
			if b := max(sumLo, sumHi) + near + rem; b <= limit {
				return b
			}
		}
		var f *poleFeature
		var d float64
		if dl <= dr {
			f, d = &feats[l], dl
			l--
		} else {
			f, d = &feats[r], dr
			r++
		}
		g2 := f.gamma * f.gamma
		if d >= f.gamma {
			// Far: convex over the interval, evaluate at both endpoints.
			dLo := w0 - f.wr
			sumLo += f.rnorm / math.Sqrt(g2+dLo*dLo)
			if bounded {
				dHi := w1 - f.wr
				sumHi += f.rnorm / math.Sqrt(g2+dHi*dHi)
			}
		} else {
			near += f.rnorm / math.Sqrt(g2+d*d)
		}
		if max(sumLo, sumHi)+near > limit {
			break
		}
	}
	return max(sumLo, sumHi) + near
}

// floorExceeds reports whether the magnitude-sum floor of [w0, w1],
//
//	σ(D) + Σ_k ‖R_k‖₂/√(γ_k² + D_k²),  D_k = max(|w0 − ω_k|, |w1 − ω_k|),
//
// exceeds limit. The floor is at most the plain per-term bound at every
// frequency of the interval, and tailBound of any subinterval is at least
// the plain bound at each of its points (near terms take their suprema,
// the convex far sum its larger endpoint value), so when the floor exceeds
// limit no bisection of [w0, w1] can ever certify. The tail stage uses it
// only to decide whether to bisect. The scan visits poles outward from the
// interval and stops as soon as the partial floor crosses limit (true) or
// cannot reach it with the remaining pole mass (false). An unbounded
// interval has a zero floor beyond σ(D).
func (s *boundScanner) floorExceeds(dSigma, limit, w0, w1 float64) bool {
	if math.IsInf(w1, 1) {
		return dSigma > limit
	}
	wrs, feats, pre := s.wrs, s.feats, s.pre
	n := len(feats)
	width := w1 - w0
	sum := dSigma
	lo := sort.SearchFloat64s(wrs, w0)
	r := lo
	for r < n && wrs[r] <= w1 {
		f := &feats[r]
		d := max(f.wr-w0, w1-f.wr)
		sum += f.rnorm / math.Sqrt(f.gamma*f.gamma+d*d)
		r++
		if sum > limit {
			return true
		}
	}
	l := lo - 1
	for l >= 0 || r < n {
		dl, dr := math.Inf(1), math.Inf(1)
		if l >= 0 {
			dl = w0 - wrs[l]
		}
		if r < n {
			dr = wrs[r] - w1
		}
		// Every pole not yet visited is at least dl (left) or dr (right)
		// from the interval, so at least that plus the width from its far
		// end.
		rem := 0.0
		if l >= 0 {
			rem += pre[l+1] / (dl + width)
		}
		if r < n {
			rem += (pre[n] - pre[r]) / (dr + width)
		}
		if sum+rem <= limit {
			return false
		}
		var f *poleFeature
		var d float64
		if dl <= dr {
			f, d = &feats[l], dl
			l--
		} else {
			f, d = &feats[r], dr
			r++
		}
		d += width
		sum += f.rnorm / math.Sqrt(f.gamma*f.gamma+d*d)
		if sum > limit {
			return true
		}
	}
	return false
}

// certMidpoint bisects an interval for the tail stage (log axis; linear at
// DC; doubling into an unbounded tail).
func certMidpoint(w0, w1 float64) float64 {
	switch {
	case math.IsInf(w1, 1):
		if w0 > 0 {
			return 2 * w0
		}
		return 1
	case w0 <= 0:
		return w1 / 2
	default:
		return math.Sqrt(w0 * w1)
	}
}

// tailStage retires intervals with the closed-form bound, bisecting the
// ones the bound cannot settle up to a depth and work budget unless
// floorExceeds proves no subinterval can be settled. It performs no σ
// evaluations at all.
type tailStage struct{}

// Name implements Certifier.
func (tailStage) Name() string { return StageTailBound }

// tailMaxDepth bounds the per-interval bisection depth of the tail stage.
// Kept shallow deliberately: inside a dense pole band the magnitude-sum
// bound cannot certify at any depth (it is blind to residue phase
// cancellation), and the σ-anchored Lipschitz sweep retires those regions
// for a fraction of the arithmetic. Depth 3 is enough for the sparse
// outskirts — the DC cell, the unbounded tail, gaps between pole clusters
// — where the bound genuinely wins. Where floorExceeds proves the bound
// cannot win at any depth, the stage does not bisect at all.
const tailMaxDepth = 3

func (tailStage) certify(cc *certContext, open []CertInterval) ([]CertInterval, []Violation, StageCost, error) {
	rem, certified := tailBisect(open,
		func(lo, hi float64) bool { return cc.scan.tailBound(cc.dSigma, cc.limit, lo, hi) <= cc.limit },
		func(lo, hi float64) bool { return cc.scan.floorExceeds(cc.dSigma, cc.limit, lo, hi) })
	return rem, nil, StageCost{Stage: StageTailBound, Certified: certified}, nil
}

// tailBisect is the tail stage's subdivision: it retires the intervals
// certifies settles and bisects the others, up to tailMaxDepth and
// tailMaxIntervals evaluations, unless futile shows that no subinterval
// can be settled either. futile only ever saves bisection work: it cannot
// certify anything. It returns the coalesced unsettled intervals and the
// number of settled ones.
func tailBisect(open []CertInterval, certifies, futile func(lo, hi float64) bool) ([]CertInterval, int) {
	type job struct {
		iv    CertInterval
		depth int
	}
	work := make([]job, 0, len(open))
	for _, iv := range open {
		work = append(work, job{iv: iv})
	}
	budget := tailMaxIntervals
	certified := 0
	var rem []CertInterval
	for len(work) > 0 {
		j := work[len(work)-1]
		work = work[:len(work)-1]
		if budget <= 0 {
			rem = append(rem, j.iv)
			continue
		}
		budget--
		if certifies(j.iv.Lo, j.iv.Hi) {
			certified++
			continue
		}
		if j.depth >= tailMaxDepth || futile(j.iv.Lo, j.iv.Hi) {
			rem = append(rem, j.iv)
			continue
		}
		mid := certMidpoint(j.iv.Lo, j.iv.Hi)
		if !(mid > j.iv.Lo) || !(mid < j.iv.Hi) {
			rem = append(rem, j.iv)
			continue
		}
		work = append(work,
			job{iv: CertInterval{Lo: mid, Hi: j.iv.Hi}, depth: j.depth + 1},
			job{iv: CertInterval{Lo: j.iv.Lo, Hi: mid}, depth: j.depth + 1},
		)
	}
	return coalesce(rem), certified
}

// coalesce sorts disjoint intervals and merges the adjacent ones so the
// eigenvalue stages solve one problem per violation neighbourhood instead
// of one per bisection leaf.
func coalesce(ivs []CertInterval) []CertInterval {
	if len(ivs) <= 1 {
		return ivs
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].Lo < ivs[b].Lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi*(1+1e-12) {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// lipschitzStage is the σ-anchored certified sweep: for an interval of
// half-width h around a sampled midpoint, the spectral-norm triangle
// inequality gives the rigorous bound
//
//	σ(S(jω)) ≤ σ(S(jω_mid)) + L·h,  L = Σ_k ‖R_k‖₂ / (γ_k² + d_k²)
//
// (the direct coupling cancels in the difference; d_k is the distance from
// the interval to pole k's resonance). Unlike the magnitude tail bound,
// the anchor is a true σ sample, so the certificate inherits the residue
// phase cancellation that keeps real models far below the worst-case sum —
// this is the stage that retires the bulk of a large passive model's pole
// band. Intervals still open at the width floor are exactly the
// near-boundary slivers the eigenvalue stages are built for; a midpoint
// sampled above the limit is already an exact violation.
type lipschitzStage struct{}

// Name implements Certifier.
func (lipschitzStage) Name() string { return StageLipschitz }

// lipJob is one certified-sweep work item: an interval with its endpoint
// σ samples, so a bisection adds exactly one new evaluation (the midpoint,
// shared by both children).
type lipJob struct {
	lo, hi   float64
	slo, shi float64
}

func (lipschitzStage) certify(cc *certContext, open []CertInterval) ([]CertInterval, []Violation, StageCost, error) {
	cost := StageCost{Stage: StageLipschitz}
	budget := sweepMaxSamples
	sample := func(w float64) float64 {
		// A resident σ is free: only genuine evaluations are charged
		// against the budget and reported as stage cost.
		if cc.cache != nil {
			if s, ok := cc.cache.sigmaFor(w); ok {
				cc.cache.SigmaHits++
				return s
			}
		}
		cost.Samples++
		budget--
		return cachedSigma(cc.model, w, cc.cache, cc.ws)
	}
	// Anchor the sweep at every frequency the surrounding run has already
	// paid for: inside Enforce the adaptive sweeps populated the cache's σ
	// layer exactly where the response does something interesting, and a
	// cached anchor costs nothing.
	anchors := cc.cache.sigmaFreqsSorted()
	var work []lipJob
	var rem []CertInterval
	var viols []Violation
	for _, iv := range open {
		if math.IsInf(iv.Hi, 1) {
			// Unbounded intervals carry no finite half-width; the tail
			// bound owns them and anything it left goes to the eigenvalue
			// stages.
			rem = append(rem, iv)
			continue
		}
		lo := iv.Lo
		slo := sample(lo)
		first := sort.SearchFloat64s(anchors, lo)
		for i := first; i < len(anchors) && anchors[i] < iv.Hi; i++ {
			w := anchors[i]
			if w <= lo*(1+1e-12) {
				continue
			}
			// Resident, since the σ layer only grows during the run: a free
			// anchor, not charged against the budget. A missing anchor is
			// re-evaluated, never trusted as σ = 0.
			sw, ok := cc.cache.sigmaFor(w)
			if !ok {
				sw = sample(w)
			}
			work = append(work, lipJob{lo: lo, hi: w, slo: slo, shi: sw})
			lo, slo = w, sw
		}
		work = append(work, lipJob{lo: lo, hi: iv.Hi, slo: slo, shi: sample(iv.Hi)})
	}
	for len(work) > 0 {
		j := work[len(work)-1]
		work = work[:len(work)-1]
		if j.slo > cc.limit || j.shi > cc.limit {
			seed := j.lo
			if j.shi > j.slo {
				seed = j.hi
			}
			peakW, peakS := refinePeak(cc.model, j.lo, j.hi, seed, cc.cache, cc.ws)
			viols = append(viols, Violation{OmegaPeak: peakW, SigmaPeak: peakS, OmegaLo: j.lo, OmegaHi: j.hi})
			continue
		}
		if budget <= 0 {
			rem = append(rem, CertInterval{Lo: j.lo, Hi: j.hi})
			continue
		}
		// Two Lipschitz cones from the endpoint anchors meet at
		// avg(σlo, σhi) + L·h; the L sum exits early in both directions —
		// the comparison is all that matters.
		h := (j.hi - j.lo) / 2
		needed := (cc.limit - (j.slo+j.shi)/2) / h
		if needed > 0 && cc.scan.lipschitz(j.lo, j.hi, needed) <= needed {
			cost.Certified++
			continue
		}
		if j.hi-j.lo <= cc.relTol*j.hi {
			rem = append(rem, CertInterval{Lo: j.lo, Hi: j.hi})
			continue
		}
		mid := (j.lo + j.hi) / 2
		sm := sample(mid)
		work = append(work,
			lipJob{lo: mid, hi: j.hi, slo: sm, shi: j.shi},
			lipJob{lo: j.lo, hi: mid, slo: j.slo, shi: sm},
		)
	}
	cost.Violations = len(viols)
	return coalesce(rem), viols, cost, nil
}

// lipschitz sums the per-pole derivative bound terms Σ ‖R‖/(γ²+d²) over
// [w0, w1], visiting poles outward from the interval in resonance order.
// It exits early in BOTH directions: once the partial sum exceeds the cap
// (cannot certify), or once the partial plus a rigorous bound on
// everything not yet visited — remaining ‖R‖ mass over the squared
// outermost distance — drops below it (certifies without touching the far
// poles). Either way the scan only pays for the pole neighbourhood that
// matters, instead of O(n) per interval.
func (s *boundScanner) lipschitz(w0, w1, cap float64) float64 {
	wrs, feats, pre := s.wrs, s.feats, s.pre
	n := len(feats)
	sum := 0.0
	// Poles resonating inside the interval: distance 0, summed exactly.
	lo := sort.SearchFloat64s(wrs, w0)
	r := lo
	for r < n && wrs[r] <= w1 {
		f := &feats[r]
		sum += f.rnorm / (f.gamma * f.gamma)
		r++
		if sum > cap {
			return sum
		}
	}
	// Outward scan, nearer side first.
	l := lo - 1
	for l >= 0 || r < n {
		dl, dr := math.Inf(1), math.Inf(1)
		if l >= 0 {
			dl = w0 - wrs[l]
		}
		if r < n {
			dr = wrs[r] - w1
		}
		rem := 0.0
		if l >= 0 && dl > 0 {
			rem += pre[l+1] / (dl * dl)
		} else if l >= 0 {
			rem = math.Inf(1)
		}
		if r < n && dr > 0 {
			rem += (pre[n] - pre[r]) / (dr * dr)
		} else if r < n && dr <= 0 {
			rem = math.Inf(1)
		}
		if sum+rem <= cap {
			return sum + rem
		}
		if dl <= dr {
			f := &feats[l]
			sum += f.rnorm / (f.gamma*f.gamma + dl*dl)
			l--
		} else {
			f := &feats[r]
			sum += f.rnorm / (f.gamma*f.gamma + dr*dr)
			r++
		}
		if sum > cap {
			return sum
		}
	}
	return sum
}

// fullStage certifies the entire axis with the exact Hamiltonian
// imaginary-eigenvalue test, resolving every open interval at once.
type fullStage struct{}

// Name implements Certifier.
func (fullStage) Name() string { return StageHamiltonian }

func (fullStage) certify(cc *certContext, open []CertInterval) ([]CertInterval, []Violation, StageCost, error) {
	rep, err := checkHamiltonian(cc.ctx, cc.model, cc.cache, cc.ws)
	if err != nil {
		cost := StageCost{Stage: StageHamiltonian, DimGate: fullMaxDim}
		if cerr := ctxErr(cc.ctx); cerr != nil {
			return nil, nil, cost, cerr
		}
		// Numerical failure: pass the intervals on instead of aborting the
		// pipeline (the counter stage may still settle them).
		cost.Note = err.Error()
		return open, nil, cost, nil
	}
	cost := exactStageCost(rep)
	cost.DimGate = fullMaxDim
	cost.Samples = len(rep.Crossings) + 1
	if len(rep.Violations) > 0 {
		cost.Violations = len(rep.Violations)
		return open, rep.Violations, cost, nil
	}
	cost.Certified = len(open)
	return nil, nil, cost, nil
}

// restrictedStage certifies each open interval with a level-γ eigentest on
// a reduced model: the poles whose tails matter inside the interval keep
// their residues, the rest are truncated and their collective contribution
// ε charged against the level (γ = limit − ε). The reduced eigenproblem is
// 2·n_near·P — tiny when violations are local, which is exactly the regime
// the tail bound leaves open.
type restrictedStage struct{}

// Name implements Certifier.
func (restrictedStage) Name() string { return StageRestricted }

func (restrictedStage) certify(cc *certContext, open []CertInterval) ([]CertInterval, []Violation, StageCost, error) {
	cost := StageCost{Stage: StageRestricted, DimGate: restrictedMaxDim}
	var rem []CertInterval
	var viols []Violation
	for _, iv := range open {
		ok, vs, err := certifyRestricted(cc, iv, &cost)
		if err != nil {
			return nil, nil, cost, err
		}
		if len(vs) > 0 {
			viols = append(viols, vs...)
			continue
		}
		if ok {
			cost.Certified++
		} else {
			rem = append(rem, iv)
		}
	}
	cost.Violations = len(viols)
	return rem, viols, cost, nil
}

// poleUnit is a conjugate-closed residue unit (one real pole or one
// conjugate pair) with its worst-case tail contribution over an interval.
type poleUnit struct {
	k0, k1  int // pole indices; k1 = -1 for a real pole
	contrib float64
}

// intervalUnits builds the conjugate-closed units with their per-term
// supremum contributions over [w0, w1], sorted by contribution descending
// (index ascending on ties, keeping the selection deterministic).
func intervalUnits(cc *certContext, w0, w1 float64) []poleUnit {
	var units []poleUnit
	term := func(k int) float64 {
		f := &cc.feats[k]
		d := 0.0
		if f.wr < w0 {
			d = w0 - f.wr
		} else if f.wr > w1 {
			d = f.wr - w1
		}
		return f.rnorm / math.Sqrt(f.gamma*f.gamma+d*d)
	}
	for k := 0; k < len(cc.model.Poles); {
		if imag(cc.model.Poles[k]) != 0 && k+1 < len(cc.model.Poles) {
			units = append(units, poleUnit{k0: k, k1: k + 1, contrib: term(k) + term(k+1)})
			k += 2
		} else {
			units = append(units, poleUnit{k0: k, k1: -1, contrib: term(k)})
			k++
		}
	}
	sort.Slice(units, func(a, b int) bool {
		if units[a].contrib != units[b].contrib {
			return units[a].contrib > units[b].contrib
		}
		return units[a].k0 < units[b].k0
	})
	return units
}

// certifyRestricted retires one interval: returns (certified, violations).
// An ambiguous outcome (false, nil) leaves the interval open for the next
// stage.
func certifyRestricted(cc *certContext, iv CertInterval, cost *StageCost) (bool, []Violation, error) {
	headroom := cc.limit - cc.dSigma
	if headroom <= 0 {
		return false, nil, nil
	}
	units := intervalUnits(cc, iv.Lo, iv.Hi)
	budget := tailBudget * headroom
	maxNear := restrictedMaxDim / (2 * cc.model.Ports())
	// Two attempts: the nominal far budget, then half of it (twice the
	// poles) when the nominal reduction is too coarse to settle the band.
	for attempt := 0; attempt < 2; attempt++ {
		certified, vs, fits, err := tryRestricted(cc, iv, units, budget/float64(attempt+1), maxNear, cost)
		if err != nil {
			return false, nil, err
		}
		if certified || len(vs) > 0 {
			return certified, vs, nil
		}
		if !fits {
			return false, nil, nil
		}
	}
	return false, nil, nil
}

// tryRestricted runs one reduced-model level test. fits=false reports that
// the budget could not be met within restrictedMaxDim at all.
func tryRestricted(cc *certContext, iv CertInterval, units []poleUnit, budget float64, maxNear int, cost *StageCost) (certified bool, viols []Violation, fits bool, err error) {
	farSum := 0.0
	for _, u := range units {
		farSum += u.contrib
	}
	nearPoles := 0
	nNear := 0
	for nNear < len(units) && farSum > budget {
		u := units[nNear]
		width := 1
		if u.k1 >= 0 {
			width = 2
		}
		if nearPoles+width > maxNear {
			return false, nil, false, nil
		}
		farSum -= u.contrib
		nearPoles += width
		nNear++
	}
	gamma := cc.limit - farSum
	if gamma <= cc.dSigma*(1+1e-9) || nNear == 0 {
		return false, nil, false, nil
	}
	// Assemble the reduced model in original pole order (preserving the
	// conjugate-pair adjacency rational.New validates).
	idx := make([]int, 0, nearPoles)
	for _, u := range units[:nNear] {
		idx = append(idx, u.k0)
		if u.k1 >= 0 {
			idx = append(idx, u.k1)
		}
	}
	sort.Ints(idx)
	poles := make([]complex128, len(idx))
	residues := make([]*mat.CMatrix, len(idx))
	for i, k := range idx {
		poles[i] = cc.model.Poles[k]
		residues[i] = cc.model.Residues[k]
	}
	reduced, rerr := rational.New(poles, residues, cc.model.D)
	if rerr != nil {
		return false, nil, false, fmt.Errorf("passivity: restricted certification: %w", rerr)
	}
	dim := 2 * len(idx) * cc.model.Ports()
	if dim > cost.EigenDim {
		cost.EigenDim = dim
	}
	crossings, herr := crossingsLevel(cc.ctx, reduced, gamma)
	if herr != nil {
		if cerr := ctxErr(cc.ctx); cerr != nil {
			return false, nil, false, cerr
		}
		cost.Note = herr.Error()
		return false, nil, true, nil
	}
	inside := crossings[:0:0]
	for _, w := range crossings {
		if w >= iv.Lo*(1-1e-9) && w <= iv.Hi*(1+1e-9) {
			inside = append(inside, w)
		}
	}
	if len(inside) == 0 {
		// The reduced σ never meets the level inside the interval: one spot
		// sample decides on which side it sits throughout.
		cost.Samples++
		if cc.redWS.sigmaAt(reduced, testPoint(iv.Lo, iv.Hi)) <= gamma {
			return true, nil, true, nil
		}
		// Reduced response sits above the level across the whole interval;
		// check the full model directly.
	}
	// Candidate sub-bands between level crossings (or the whole interval):
	// confirm on the full model. Without a confirmed violation the outcome
	// is ambiguous (the far-tail allocation was too coarse) and the caller
	// retries tighter.
	bands := bandsBetween(iv.Lo, iv.Hi, inside)
	cost.Samples += len(bands)
	viols, _, _ = judgeBands(cc.model, bands, cc.limit, cc.cache, cc.ws)
	return false, viols, true, nil
}
