package passivity

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rational"
)

// This file implements the terminal rigor stage of the certification
// pipeline: an argument-principle eigenvalue counter over jω-axis segments
// of the level-γ Hamiltonian pencil. The counter *counts* imaginary
// eigenvalues inside a thin rectangle around each unsettled segment by
// contour quadrature of the logarithmic-derivative trace
// (mat.ContourEvaluator). A provably-zero count means σ(S(jω)) − γ cannot
// change sign on the segment, so a single spot sample settles it
// rigorously; nonzero counts are bisected down to candidate crossing
// clusters that the σ machinery then judges directly. Either way the stage
// retires every interval it is handed — Certificate.Open == nil — or
// records an honest Note about the rectangle or cluster it could not
// settle.

// StageCounter names the contour-integral counter stage in certificates.
const StageCounter = "contour-counter"

// counterCluster is one floor-width segment of the jω axis that still
// holds a nonzero eigenvalue count after bisection — a candidate crossing
// (or tight cluster of crossings) of σ(S(jω)) through the level γ.
type counterCluster struct {
	Lo, Hi float64
	Count  int
}

// IntervalCounter counts the eigenvalues of a model's level-γ Hamiltonian
// on segments of the positive imaginary axis — equivalently the crossings
// of σ(S(jω)) through the level γ with ω in the segment. The Hamiltonian
// is built once; each count walks a thin rectangular contour around the
// segment. Not safe for concurrent use.
type IntervalCounter struct {
	ev        *mat.ContourEvaluator
	gamma     float64
	bound     float64
	lastDelta float64
	// Budget caps the determinant evaluations over the counter's lifetime
	// (0 = unlimited); one rectangle count may spend at most max(4096,
	// 2·N) of them — the quadrature's aliasing guard tightens chords
	// proportionally to N, so large-N contours legitimately spend more
	// nodes. Exceeding either returns mat.ErrContourStall.
	Budget int
}

// NewIntervalCounter builds the level-γ Hamiltonian of the model in
// factored diagonal-plus-low-rank form (HamiltonianFactorsLevel) and
// prepares the contour evaluator over the structured O(N·p²) determinant
// kernel. It fails when γ is a singular value of D (the pencil is
// undefined there — nudge γ).
func NewIntervalCounter(model *rational.Model, gamma float64) (*IntervalCounter, error) {
	s, err := HamiltonianFactorsLevel(model, gamma)
	if err != nil {
		return nil, err
	}
	return newIntervalCounter(mat.NewContourEvaluatorBackend(s), gamma), nil
}

// newIntervalCounter wraps a prepared contour evaluator.
func newIntervalCounter(ev *mat.ContourEvaluator, gamma float64) *IntervalCounter {
	return &IntervalCounter{ev: ev, gamma: gamma, bound: ev.EigenBound()}
}

// Dim returns the Hamiltonian dimension 2·n·P.
func (ic *IntervalCounter) Dim() int { return ic.ev.Dim() }

// Nodes returns the determinant evaluations spent so far.
func (ic *IntervalCounter) Nodes() int { return ic.ev.Nodes }

// OmegaBound returns a rigorous upper bound on every crossing frequency:
// the induced-norm bound on the Hamiltonian's eigenvalue moduli. Segments
// entirely beyond it are crossing-free without any quadrature.
func (ic *IntervalCounter) OmegaBound() float64 { return ic.bound }

// contourOpts builds the per-rectangle quadrature options under the
// remaining budget.
func (ic *IntervalCounter) contourOpts() (mat.ContourOptions, error) {
	limit := max(4096, 2*ic.Dim())
	if ic.Budget > 0 {
		rem := ic.Budget - ic.ev.Nodes
		if rem <= 0 {
			return mat.ContourOptions{}, fmt.Errorf("counter budget exhausted after %d nodes: %w", ic.ev.Nodes, mat.ErrContourStall)
		}
		limit = min(limit, rem)
	}
	return mat.ContourOptions{MaxNodes: limit}, nil
}

// Count counts the Hamiltonian eigenvalues inside a thin rectangle
// enclosing the open segment (lo, hi) of the positive imaginary axis. A
// zero count proves the segment holds no crossing of σ through γ. A
// nonzero count flags candidates: the rectangle has half-width δ in the
// real direction, so eigenvalues within δ of the axis are counted even if
// slightly off it (sound for certification — zero is still zero — and the
// candidates are vetted by direct σ evaluation afterwards). Stalls retry
// with a shrunken δ; a persistent mat.ErrContourStall means an eigenvalue
// hugs the segment endpoints and the caller should split elsewhere. ctx is
// checked before every rectangle count and inside it once per node batch
// (see mat.ContourEvaluator.CountRect); a cancelled count returns
// ctx.Err().
func (ic *IntervalCounter) Count(ctx context.Context, lo, hi float64) (int, error) {
	if !(lo >= 0) || !(hi > lo) || math.IsInf(hi, 1) {
		return 0, fmt.Errorf("passivity: IntervalCounter.Count on invalid segment [%g, %g]", lo, hi)
	}
	delta := 0.25 * (hi - lo)
	var lastErr error
	for try := 0; try < 5; try++ {
		if err := ctxErr(ctx); err != nil {
			return 0, err
		}
		opts, err := ic.contourOpts()
		if err != nil {
			return 0, err
		}
		rect := mat.RectContour{ReLo: -delta, ReHi: delta, ImLo: lo, ImHi: hi}
		if lo == 0 {
			// DC segment: drop the bottom edge below the axis so an ω = 0
			// eigenvalue sits inside the contour, not on it. The spectrum
			// is symmetric in jω, so the dip only adds mirror images of
			// eigenvalues already counted — harmless for a candidate count
			// and irrelevant for a zero count.
			rect.ImLo = -delta
		}
		n, err := ic.ev.CountRect(ctx, rect, opts)
		if err == nil {
			ic.lastDelta = delta
			return n, nil
		}
		lastErr = err
		// An eigenvalue near a vertical edge stalls the quadrature; thinner
		// rectangles move the edge off it. (Horizontal-edge stalls are the
		// caller's to fix by splitting elsewhere.)
		delta *= 0.35
	}
	return 0, lastErr
}

// Crossings bisects (lo, hi) into crossing-free gaps and floor-width
// clusters holding the nonzero counts. floor is the smallest cluster width
// (a relative width is applied against hi by the caller). When a midpoint
// stalls the quadrature — an eigenvalue sitting on it — nearby split
// points are tried before giving up on the segment. Every count honours
// ctx (see Count).
func (ic *IntervalCounter) Crossings(ctx context.Context, lo, hi, floor float64) ([]counterCluster, error) {
	n, err := ic.Count(ctx, lo, hi)
	switch {
	case err == nil && n == 0:
		return nil, nil
	case err == nil && hi-lo <= floor:
		return []counterCluster{{Lo: lo, Hi: hi, Count: n}}, nil
	case err != nil && !errors.Is(err, mat.ErrContourStall):
		return nil, err
	case err != nil && hi-lo <= floor:
		return nil, err
	}
	// Nonzero count, or a stall on a rectangle too crowded for its node
	// budget: either way the halves are strictly easier, so split.
	width := hi - lo
	var clusters []counterCluster
	// Nudge ladder for the split point: the exact midpoint first, then
	// asymmetric offsets in case an eigenvalue sits on it.
	for _, f := range []float64{0.5, 0.53, 0.46, 0.59, 0.41} {
		mid := lo + f*width
		left, err := ic.Crossings(ctx, lo, mid, floor)
		if err != nil {
			if errors.Is(err, mat.ErrContourStall) {
				continue
			}
			return nil, err
		}
		right, err := ic.Crossings(ctx, mid, hi, floor)
		if err != nil {
			if errors.Is(err, mat.ErrContourStall) {
				continue
			}
			return nil, err
		}
		return append(append(clusters, left...), right...), nil
	}
	return nil, mat.ErrContourStall
}

// CounterCertifier returns the terminal contour-integral counter stage: it
// retires every interval the earlier stages left open (or proves the
// violations living inside them), so certificates finish with Open == nil.
func CounterCertifier() Certifier { return counterStage{} }

// counterStage adapts IntervalCounter to the Certifier interface.
type counterStage struct{}

// Name implements Certifier.
func (counterStage) Name() string { return StageCounter }

func (counterStage) certify(cc *certContext, open []CertInterval) ([]CertInterval, []Violation, StageCost, error) {
	cost := StageCost{Stage: StageCounter, DimGate: counterMaxDim}
	if len(open) == 0 {
		// Nothing left to settle: skip building the Hamiltonian entirely —
		// the terminal stage must be free on the steady-state path where the
		// earlier certificates already covered the axis.
		return nil, nil, cost, nil
	}
	if dim := 2 * len(cc.model.Poles) * cc.model.D.Rows; dim > counterMaxDim {
		// Each quadrature node costs O(N·p²) on the structured kernel; past
		// the configured frontier the node budget would dominate the run.
		// Decline honestly instead of stalling, and count the declined
		// intervals so the gate is visible in metrics, not just in this
		// note.
		cost.Note = fmt.Sprintf("counter declined: Hamiltonian dim %d exceeds the counter dimension gate %d", dim, counterMaxDim)
		cost.Declined = len(open)
		return open, nil, cost, nil
	}
	ic, err := NewIntervalCounter(cc.model, cc.limit)
	if err != nil {
		// γ collides with a singular value of D; leave the intervals open
		// rather than abort a best-effort pipeline tail.
		cost.Note = err.Error()
		return open, nil, cost, nil
	}
	ic.Budget = counterMaxNodes
	cost.EigenDim = ic.Dim()
	var rem []CertInterval
	var viols []Violation
	for _, iv := range open {
		ivViols, note, err := counterSettle(cc, ic, iv, &cost)
		if err != nil {
			return nil, nil, cost, err
		}
		switch {
		case len(ivViols) > 0:
			viols = append(viols, ivViols...)
		case note == "":
			cost.Certified++
		default:
			cost.Note = note
			rem = append(rem, iv)
		}
	}
	cost.Nodes = ic.Nodes()
	cost.Violations = len(viols)
	return rem, viols, cost, nil
}

// clusterRefine scales the relative floor of the second bisection pass
// over a cluster: relTol·clusterRefine·ω at the cluster's upper edge. It
// is relative to the cluster's own frequency, not to the segment's, so a
// low-frequency cluster of the unbounded tail segment (whose first-pass
// floor follows the eigenvalue bound) is resolved as finely as any other.
const clusterRefine = 1e-3

// counterSettle resolves one open interval: localize candidate crossing
// clusters by contour counting, then judge every crossing-free gap with a
// single σ sample and every cluster with a polished peak. A cluster whose
// peak stays at or below the level confirms nothing — two crossings closer
// than the floor bracket a band the polish over the whole cluster can step
// over — so it is bisected again to a finer floor and judged the same way.
// It reports the violations found, or — when it could not settle the
// interval — a diagnostic note; no violation and an empty note certify
// the interval. The only error is the cancellation of cc.ctx.
func counterSettle(cc *certContext, ic *IntervalCounter, iv CertInterval, cost *StageCost) ([]Violation, string, error) {
	lo, hi := iv.Lo, iv.Hi
	segHi := hi
	if math.IsInf(hi, 1) {
		// No Hamiltonian eigenvalue lies beyond the norm bound, so the
		// segment past it is crossing-free by construction; counting stops
		// at the bound and the tail joins the last gap.
		segHi = ic.OmegaBound() * (1 + 1e-9)
	}
	var clusters []counterCluster
	if lo < segHi {
		var err error
		clusters, err = ic.Crossings(cc.ctx, lo, segHi, cc.relTol*segHi)
		if cerr := ctxErr(cc.ctx); cerr != nil {
			return nil, "", cerr
		}
		if err != nil {
			return nil, fmt.Sprintf("counter on [%g, %g]: %v", lo, segHi, err), nil
		}
	}
	viols, unconfirmed := judgeClusters(cc, lo, hi, clusters, cost)
	note := ""
	for _, cl := range unconfirmed {
		sub, err := ic.Crossings(cc.ctx, cl.Lo, cl.Hi, clusterRefine*cc.relTol*cl.Hi)
		if cerr := ctxErr(cc.ctx); cerr != nil {
			return nil, "", cerr
		}
		if err != nil {
			note = fmt.Sprintf("counter on cluster [%g, %g]: %v", cl.Lo, cl.Hi, err)
			continue
		}
		vs, still := judgeClusters(cc, cl.Lo, cl.Hi, sub, cost)
		viols = append(viols, vs...)
		if len(still) > 0 {
			note = fmt.Sprintf("counter on [%g, %g]: crossing cluster [%g, %g] unconfirmed", lo, hi, still[0].Lo, still[0].Hi)
		}
	}
	if len(viols) > 0 {
		return viols, "", nil
	}
	return nil, note, nil
}

// judgeClusters judges each crossing-free gap of [lo, hi] between the
// clusters with judgeBands and polishes each cluster's peak. It returns
// the violations found and the clusters whose peak stayed at or below the
// level.
func judgeClusters(cc *certContext, lo, hi float64, clusters []counterCluster, cost *StageCost) ([]Violation, []counterCluster) {
	gaps := make([]CertInterval, 0, len(clusters)+1)
	for _, cl := range clusters {
		if cl.Lo > lo {
			gaps = append(gaps, CertInterval{Lo: lo, Hi: cl.Lo})
		}
		lo = cl.Hi
	}
	if hi > lo {
		gaps = append(gaps, CertInterval{Lo: lo, Hi: hi})
	}
	cost.Samples += len(gaps)
	viols, _, _ := judgeBands(cc.model, gaps, cc.limit, cc.cache, cc.ws)
	var unconfirmed []counterCluster
	for _, cl := range clusters {
		seed := testPoint(cl.Lo, cl.Hi)
		peakW, peakS := refinePeak(cc.model, cl.Lo, cl.Hi, seed, cc.cache, cc.ws)
		cost.Samples++
		if peakS > cc.limit {
			viols = append(viols, Violation{OmegaPeak: peakW, SigmaPeak: peakS, OmegaLo: cl.Lo, OmegaHi: cl.Hi})
		} else {
			unconfirmed = append(unconfirmed, cl)
		}
	}
	return viols, unconfirmed
}
