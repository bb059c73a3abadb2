package passivity

import (
	"math"
	"sort"

	"repro/internal/mat"
	"repro/internal/rational"
)

// This file implements MethodAdaptive: a multi-stage adaptive sampling
// passivity characterizer in the spirit of De Stefano et al., "A
// Multi-Stage Adaptive Sampling Scheme for Passivity Characterization of
// Large-Scale Macromodels". Starting from a coarse log-spaced seed grid
// (augmented with every pole's resonance and warm-start frequencies from a
// previous check), each stage estimates a per-interval error from the local
// σ(ω) curvature and from pole proximity, and bisects only the suspicious
// intervals. Narrow resonant violation bands that a fixed sweep grid steps
// over are found by zooming to the half-width scale of the poles that could
// push σ above one, while intervals certified passive by a residue tail
// bound are pruned without any further samples. All evaluations of a stage
// fan out through parallel.For; results are bitwise independent of the
// worker count.

// poleFeature summarizes one pole for the adaptive error estimates.
type poleFeature struct {
	wr    float64 // resonance frequency |Im p| (0 for real poles)
	gamma float64 // half-width |Re p|
	rnorm float64 // spectral norm ‖R‖₂ of the residue matrix
	// peakGain bounds the σ contribution of this pole's term anywhere on
	// the imaginary axis: ‖R‖₂/|Re p|, attained at its own resonance.
	peakGain float64
}

// poleFeatureOf builds the feature of pole k (shared by the adaptive
// characterizer and the certification pipeline, which needs the features
// index-aligned with the pole list).
func poleFeatureOf(model *rational.Model, k int, ws *checkWorkspace) poleFeature {
	p := model.Poles[k]
	gamma := math.Abs(real(p))
	if gamma == 0 {
		// Marginally stable pole: keep the feature finite so the scale
		// and bound arithmetic stays well defined.
		gamma = 1e-12 * (1 + math.Abs(imag(p)))
	}
	rn := mat.MaxSingularValueInto(&ws.svd, model.Residues[k])
	return poleFeature{
		wr:       math.Abs(imag(p)),
		gamma:    gamma,
		rnorm:    rn,
		peakGain: rn / gamma,
	}
}

// poleFeatures builds the per-pole features, sorted ascending by resonance
// frequency so the split criteria can binary-search the neighbourhood of an
// interval instead of scanning every pole.
func poleFeatures(model *rational.Model, ws *checkWorkspace) []poleFeature {
	feats := make([]poleFeature, 0, len(model.Poles))
	for k := range model.Poles {
		feats = append(feats, poleFeatureOf(model, k, ws))
	}
	sort.Slice(feats, func(a, b int) bool { return feats[a].wr < feats[b].wr })
	return feats
}

// Tail-bound certification states, cached per interval (the bound depends
// only on the interval endpoints, so its verdict never changes once
// computed; sub-intervals of a certified interval are certified too, but
// those are never created because certified intervals never split).
const (
	certUnknown int8 = iota
	certPassive
	certOpen
)

// adaptiveBuffers holds the refinement grid of one adaptive check. It
// lives in the check's serial-phase checkWorkspace, so successive checks
// reuse the arrays instead of allocating them every check.
type adaptiveBuffers struct {
	grid []float64
	lg   []float64 // log(grid), -Inf at DC; memoized for the curvature math
	sv   []float64
	cert []int8 // cert[i] covers interval [grid[i], grid[i+1]]

	// spare is the second buffer set merge writes into before swapping
	// it with the live arrays, so refinement stages reuse two sets of
	// buffers instead of allocating fresh arrays every stage.
	spare struct {
		grid, lg, sv []float64
		cert         []int8
	}
}

// adaptiveState carries the refinement grid and the per-model quantities
// the split criteria need.
type adaptiveState struct {
	*adaptiveBuffers
	model  *rational.Model
	feats  []poleFeature // sorted ascending by wr
	wrs    []float64     // feats[i].wr, for binary search
	scan   *boundScanner // outward-scanning interval bounds over feats
	dSigma float64
	limit  float64
	relTol float64
}

// setGrid installs a sorted grid, built in the live grid buffer, with its
// σ samples, resetting the per-interval caches. A buffer is reallocated
// only when its capacity is short; sv is adopted rather than copied then.
func (a *adaptiveState) setGrid(grid, sv []float64) {
	a.grid = grid
	if cap(a.sv) < len(sv) {
		a.sv = sv
	} else {
		a.sv = append(a.sv[:0], sv...)
	}
	a.lg = resize(a.lg, len(grid))
	for i, w := range grid {
		a.lg[i] = math.Log(w)
	}
	a.cert = resize(a.cert, max(len(grid)-1, 0))
	clear(a.cert) // certUnknown
}

// resize returns buf resliced to length n, reallocated only when its
// capacity is short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// tailBound is a rigorous interval bound on σ over [w0, w1]: the tightened
// interaction-aware form shared with the certification pipeline (see
// boundScanner.tailBound in certify.go — far-pole terms are convex over
// the interval, so their sum is evaluated at the endpoints instead of
// summing per-term suprema attained at different frequencies). Intervals
// whose bound stays at or below the limit cannot host a violation and are
// pruned from refinement; the outward scan exits early in both directions
// — callers only use the comparison.
func (a *adaptiveState) tailBound(w0, w1 float64) float64 {
	return a.scan.tailBound(a.dSigma, a.limit, w0, w1)
}

// localScale returns the variation scale of σ over [w0, w1] — the smallest
// γ_k + dist_k over the pole features, capped at w1 — together with the
// largest resonance gain ‖R‖₂/γ among the features whose own scale is
// still unresolved by an interval of the given width. The scale tells the
// refinement how finely σ must be sampled here before its local behaviour
// can be trusted; the hidden gain tells it whether an unresolved resonance
// could push σ above the limit between the current samples.
//
// Only features with γ + dist < 2·width can influence the caller's split
// decision (the scale is compared against 2·width and the hidden gain
// requires γ + dist ≤ width), and those all have resonances within 2·width
// of the interval. The scan therefore binary-searches the sorted features
// for the window [w0 − 2.5·width, w1 + 2.5·width] (the 0.5 margin absorbs
// rounding at the window edges) instead of visiting all n poles — on a
// refined grid of g intervals this turns each stage from O(g·n) into
// O(g·log n) plus the few poles actually nearby.
func (a *adaptiveState) localScale(w0, w1, width float64) (scale, hiddenGain float64) {
	scale = w1
	if scale <= 0 {
		scale = 1
	}
	lo := w0 - 2.5*width
	hi := w1 + 2.5*width
	for i := sort.SearchFloat64s(a.wrs, lo); i < len(a.feats); i++ {
		f := &a.feats[i]
		if f.wr > hi {
			break
		}
		d := 0.0
		if f.wr < w0 {
			d = w0 - f.wr
		} else if f.wr > w1 {
			d = f.wr - w1
		}
		s := f.gamma + d
		if s < scale {
			scale = s
		}
		if s <= width && f.peakGain > hiddenGain {
			hiddenGain = f.peakGain
		}
	}
	return scale, hiddenGain
}

// secondDiff estimates σ” over the node triple (i0, i1, i2) by divided
// differences in log-ω (linear ω when the triple starts at DC).
func (a *adaptiveState) secondDiff(i0, i1, i2 int) float64 {
	var x0, x1, x2 float64
	if a.grid[i0] > 0 {
		x0, x1, x2 = a.lg[i0], a.lg[i1], a.lg[i2]
	} else {
		x0, x1, x2 = a.grid[i0], a.grid[i1], a.grid[i2]
	}
	d10 := (a.sv[i1] - a.sv[i0]) / (x1 - x0)
	d21 := (a.sv[i2] - a.sv[i1]) / (x2 - x1)
	return 2 * (d21 - d10) / (x2 - x0)
}

// localMaxEstimate bounds the in-interval maximum of σ by the larger
// endpoint value plus a quadratic interpolation-error term built from the
// neighbouring curvature: max ≲ max(s0, s1) + |σ”|·h²/8.
func (a *adaptiveState) localMaxEstimate(i int) float64 {
	w0, w1 := a.grid[i], a.grid[i+1]
	curv := 0.0
	if i > 0 {
		curv = math.Abs(a.secondDiff(i-1, i, i+1))
	}
	if i+2 < len(a.grid) {
		if c := math.Abs(a.secondDiff(i, i+1, i+2)); c > curv {
			curv = c
		}
	}
	var h float64
	if w0 > 0 {
		h = a.lg[i+1] - a.lg[i]
	} else {
		h = w1 - w0
	}
	return math.Max(a.sv[i], a.sv[i+1]) + curv*h*h/8
}

// needSplit decides whether interval i is suspicious enough to bisect this
// stage. The criteria, in order:
//
//  1. numerical floor — stop near machine resolution;
//  2. tail-bound pruning — certified-passive intervals never split;
//  3. feature resolution — zoom toward any pole whose resonance could
//     cross the limit until σ is sampled at the pole's half-width scale;
//  4. edge bracketing — intervals straddling the limit split until the
//     band edge is located to the relative tolerance;
//  5. curvature — resolved intervals still split while the local quadratic
//     error estimate leaves room for a violation between the samples.
func (a *adaptiveState) needSplit(i int) bool {
	w0, w1 := a.grid[i], a.grid[i+1]
	s0, s1 := a.sv[i], a.sv[i+1]
	width := w1 - w0
	if width <= 1e-12*w1 {
		return false
	}
	switch a.cert[i] {
	case certPassive:
		return false
	case certUnknown:
		if a.tailBound(w0, w1) <= a.limit {
			a.cert[i] = certPassive
			return false
		}
		a.cert[i] = certOpen
	}
	scale, hiddenGain := a.localScale(w0, w1, width)
	if width > 0.5*scale && math.Max(s0, s1)+hiddenGain > a.limit {
		return true
	}
	above0, above1 := s0 > a.limit, s1 > a.limit
	if above0 != above1 {
		return width > a.relTol*w1
	}
	if above0 && above1 {
		// Band interior: resolved at the local scale is enough; the peak
		// is polished by golden-section refinement afterwards.
		return false
	}
	// Both endpoints below the limit: split only while the local quadratic
	// estimate leaves room for a genuine crossing between the samples. A
	// flat plateau arbitrarily close to one has negligible curvature and
	// must NOT be refined — near-limit local crests are polished by the
	// golden-section pass in assembleReport, exactly as in the fixed
	// sweep, so stopping here cannot hide a smooth sub-resolution peak.
	if a.localMaxEstimate(i) <= a.limit {
		return false
	}
	return width > a.relTol*w1
}

// midpointOmega bisects an interval on the log axis (linearly for the DC
// interval).
func midpointOmega(w0, w1 float64) float64 {
	if w0 <= 0 {
		return w1 / 2
	}
	return math.Sqrt(w0 * w1)
}

// merge inserts the freshly evaluated midpoints into the sorted grid,
// carrying the log coordinates and the per-interval certification cache:
// an interval that survives unsplit keeps its tail-bound verdict, while
// the sub-intervals created around a midpoint start unknown. The merged
// arrays are written into the spare buffer set (grown geometrically) and
// the old live arrays become the next stage's spares.
func (a *adaptiveState) merge(ws, svs []float64) {
	n := len(a.grid) + len(ws)
	b := &a.spare
	if cap(b.grid) < n || cap(b.lg) < n || cap(b.sv) < n || cap(b.cert) < n {
		b.grid = make([]float64, 0, 2*n)
		b.lg = make([]float64, 0, 2*n)
		b.sv = make([]float64, 0, 2*n)
		b.cert = make([]int8, 0, 2*n)
	}
	grid, lg, sv, cert := b.grid[:0], b.lg[:0], b.sv[:0], b.cert[:0]
	i, j := 0, 0
	prevOld := -2 // old index of the previously appended point; -2 = midpoint
	for i < len(a.grid) || j < len(ws) {
		if j >= len(ws) || (i < len(a.grid) && a.grid[i] <= ws[j]) {
			if len(grid) > 0 {
				if prevOld == i-1 {
					cert = append(cert, a.cert[i-1])
				} else {
					cert = append(cert, certUnknown)
				}
			}
			grid = append(grid, a.grid[i])
			lg = append(lg, a.lg[i])
			sv = append(sv, a.sv[i])
			prevOld = i
			i++
		} else {
			if len(grid) > 0 {
				cert = append(cert, certUnknown)
			}
			grid = append(grid, ws[j])
			lg = append(lg, math.Log(ws[j]))
			sv = append(sv, svs[j])
			prevOld = -2
			j++
		}
	}
	b.grid, b.lg, b.sv, b.cert = a.grid, a.lg, a.sv, a.cert
	a.grid, a.lg, a.sv, a.cert = grid, lg, sv, cert
}

// dedupeSorted drops near-identical frequencies so the divided differences
// of the curvature estimate stay finite.
func dedupeSorted(ws []float64) []float64 {
	out := ws[:0]
	for i, w := range ws {
		if i == 0 || w > out[len(out)-1]*(1+1e-12) {
			out = append(out, w)
		}
	}
	return out
}

const (
	// adaptiveSeedPoints is the coarse log-grid density the adaptive
	// characterizer starts from; pole resonances are always added on top.
	adaptiveSeedPoints = 64
	// adaptiveRelTol is the relative tolerance to which violation-band
	// edges are bracketed (also the width floor of the certifier's
	// subdividing stages).
	adaptiveRelTol = 1e-3
)

func checkAdaptive(model *rational.Model, opts CheckOptions, ws *checkWorkspace) (*Report, error) {
	rep := &Report{Method: "adaptive", Passive: true}
	st := &adaptiveState{
		adaptiveBuffers: &ws.adaptive,
		model:           model,
		feats:           poleFeatures(model, ws),
		dSigma:          mat.MaxSingularValue(mat.RealToComplex(model.D)),
		limit:           1 + passivityTol,
		relTol:          adaptiveRelTol,
	}
	st.scan = newBoundScanner(st.feats)
	st.wrs = st.scan.wrs

	// Stage 0: coarse log seed grid with every pole resonance and its
	// half-width neighbours (shared with the fixed sweep), plus warm-start
	// frequencies from the previous check of this enforcement run.
	grid := poleSeededGrid(st.grid[:0], model, adaptiveSeedPoints, opts.OmegaMin, opts.OmegaMax)
	if opts.Cache != nil {
		for _, w := range opts.Cache.hot {
			if w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
				grid = append(grid, w)
			}
		}
	}
	sortFloats(grid)
	grid = dedupeSorted(grid)
	sv, err := sigmaBatch(opts.Ctx, model, grid, opts.Workers, opts.Cache, ws)
	if err != nil {
		return nil, err
	}
	st.setGrid(grid, sv)

	budget := opts.AdaptiveMaxSamples
	for stage := 0; stage < opts.AdaptiveMaxStages && budget > 0; stage++ {
		var mids []float64
		for i := 0; i+1 < len(st.grid); i++ {
			if st.needSplit(i) {
				mids = append(mids, midpointOmega(st.grid[i], st.grid[i+1]))
			}
		}
		if len(mids) == 0 {
			break
		}
		if len(mids) > budget {
			mids = mids[:budget]
		}
		budget -= len(mids)
		msv, err := sigmaBatch(opts.Ctx, model, mids, opts.Workers, opts.Cache, ws)
		if err != nil {
			return nil, err
		}
		st.merge(mids, msv)
	}

	rep.Samples = len(st.grid)
	assembleReport(model, st.grid, st.sv, opts.Cache, ws, rep)
	// Seed the next check of this enforcement run with the band geometry
	// found now: edges and peaks re-localize shrinking bands in a single
	// stage.
	if opts.Cache != nil {
		opts.Cache.hot = opts.Cache.hot[:0]
	}
	addHot(opts.Cache, rep.Violations)
	return rep, nil
}
