package passivity

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rational"
)

// Method selects the passivity detection algorithm.
type Method int

const (
	// MethodAuto runs the multi-stage adaptive characterizer first. A
	// violation it samples is already a proof; a passive verdict is closed
	// by the exact Hamiltonian test when N = 2·n·P ≤ hamiltonianMaxDim and
	// stands on the sampling otherwise.
	MethodAuto Method = iota
	// MethodHamiltonian always uses the Hamiltonian eigenvalue test
	// (exact, O((2nP)³)).
	MethodHamiltonian
	// MethodSweep always uses the fixed-grid singular-value frequency
	// sweep (pole-seeded log grid).
	MethodSweep
	// MethodAdaptive always uses the multi-stage adaptive sampling
	// characterizer: a coarse seed grid refined only where the local σ(ω)
	// curvature or pole proximity leaves room for a violation.
	MethodAdaptive
)

// Method-selection decision table. Let N = 2·n·P be the Hamiltonian
// dimension, n the pole count, P the port count:
//
//	Method       | Cost                     | Wins when
//	-------------+--------------------------+----------------------------------
//	Hamiltonian  | O(N³) eigensolve         | N ≤ hamiltonianMaxDim; exact
//	             |                          | crossings needed (certification,
//	             |                          | oracle for the other methods).
//	Sweep        | SweepPoints × O(P²n+P³)  | mid-size models with broad, well
//	             |                          | separated violation bands; flat
//	             |                          | cost profile, trivially parallel.
//	Adaptive     | ~seeds+zoom × O(P²n+P³)  | large models (N beyond the
//	             |                          | eigensolve) and/or narrow
//	             |                          | resonant bands a fixed grid can
//	             |                          | step over; cheapest inside
//	             |                          | Enforce via the EvalCache.
//	Auto         | Adaptive, plus one O(N³) | always Adaptive first; a passive
//	             | eigensolve per passive   | verdict with N ≤ hamiltonianMaxDim
//	             | verdict at small N       | is closed by the Hamiltonian test.
//
// Auto is two-speed because a sampled σ > 1+passivityTol is an exact σ
// evaluation at a real frequency: a non-passive verdict needs no
// eigensolve, and inside Enforce every sweep but the converged one is
// non-passive. Exactness is paid once, when a passive verdict would end
// the loop; a band the eigentest finds there is seeded into the
// EvalCache hot set, so the next adaptive sweep samples it.
//
// All methods except Hamiltonian only ever sample σ(ω) and can therefore
// step over a residual band. CheckOptions.Certify escalates a passive
// verdict through the staged certification pipeline (certify.go), whose
// stages win in different regimes:
//
//	Stage                  | Cost                   | Wins when
//	-----------------------+------------------------+--------------------------
//	tail-bound             | O(intervals·n), no σ   | headroom 1−σ(D) is ample
//	                       | evaluations            | away from resonances —
//	                       |                        | retires most of the axis.
//	hamiltonian            | O(N³) eigensolve       | N ≤ fullMaxDim: exact, one
//	                       |                        | shot.
//	lipschitz              | one σ sample per       | N > fullMaxDim, passive pole
//	                       | bisection, capped by   | bands: σ-anchored bound
//	                       | sweepMaxSamples        | sees residue cancellation.
//	hamiltonian-restricted | Σ O((2·n_near·P)³)     | large N, local violations:
//	                       | per open interval      | level-γ test on reduced
//	                       |                        | models, γ charged by the
//	                       |                        | truncated far-pole tail.
//	                       |                        | Measured on a violating
//	                       |                        | N = 800 narrow-band model
//	                       |                        | (2-vCPU x86-64 host): 3
//	                       |                        | violations in 2.8 s; without
//	                       |                        | it the counter spends its
//	                       |                        | 250,000 nodes (54 s) and
//	                       |                        | proves none.
//	contour-counter        | O(N·p²) per contour    | whatever is still open;
//	                       | node, capped by        | free when nothing is.
//	                       | counterMaxNodes        |
//
// There is no shift-and-invert probe stage between the restricted stage
// and the counter: in the large-model chain forced onto 240 small
// synthetic models one ran on 58 and found a violation on none, and
// removing it changed no certificate.

const (
	// hamiltonianMaxDim is the largest Hamiltonian dimension N = 2·n·P
	// at which MethodAuto closes a passive verdict with the eigentest, so
	// Auto stays exact up to it.
	hamiltonianMaxDim = 400
	// passivityTol is the passivity slack: σ ≤ 1+passivityTol counts as
	// passive.
	passivityTol = 1e-9
)

// CheckOptions configures a passivity check. The σ evaluation scratch is
// not among them: every check draws its workspaces from the package's one
// pool (see workspaces).
type CheckOptions struct {
	Method Method
	// OmegaMin/OmegaMax bound the sweep band (rad/s). Zero values default
	// to one decade beyond the pole imaginary-part range.
	OmegaMin, OmegaMax float64
	// SweepPoints is the log-grid density of the sweep (default 1000).
	SweepPoints int
	// Workers bounds the goroutines used by the sweep grid evaluation
	// (0 = GOMAXPROCS, 1 = serial). Results are independent of the value.
	Workers int
	// AdaptiveMaxStages caps the number of refinement stages (default 64).
	AdaptiveMaxStages int
	// AdaptiveMaxSamples caps the σ evaluations the adaptive refinement
	// stages may spend beyond the mandatory seed grid (default 20000).
	AdaptiveMaxSamples int
	// Certify escalates a passive verdict through the staged certification
	// pipeline (see Certify and DefaultPipeline): tail-bound interval
	// certificates first, then an exact or restricted Hamiltonian
	// eigentest. Violations the pipeline proves are appended to the report
	// and flip Passive; the pipeline's verdict and cost land in
	// Report.Certificate. Enforce manages its own certification — it runs
	// the fast method every sweep and escalates only on convergence — so
	// this flag matters for standalone checks.
	Certify bool
	// Ctx, when non-nil, cancels the check cooperatively: parallel σ
	// fan-outs stop claiming new frequencies (in-flight evaluations drain
	// deterministically, no goroutine leaks), the adaptive stage loop and
	// the certification pipeline stop between stages, the Hamiltonian
	// eigensolves between iterations and the contour counter between
	// rectangle counts, and Check returns ctx.Err(). A nil Ctx never
	// cancels.
	Ctx context.Context
	// Progress, when non-nil, receives ProgressEvents (check completions,
	// enforcement iterations, certification stages) synchronously on the
	// working goroutine. A sink shared by concurrent enforcements (the
	// Session batch) is called from their goroutines and must be safe for
	// that.
	Progress ProgressFunc
	// Cache, when non-nil, memoizes per-frequency evaluations across
	// checks; it binds itself to each model checked through it, so σ of an
	// earlier pole set or residue set is never served (see EvalCache).
	// Enforce installs one automatically. Not safe for concurrent checks.
	Cache *EvalCache
}

// Violation is one frequency band where a singular value exceeds one.
type Violation struct {
	OmegaPeak float64 // location of the in-band maximum (rad/s)
	SigmaPeak float64 // the maximum singular value there
	OmegaLo   float64 // lower band edge (0 when the band starts at DC)
	OmegaHi   float64 // upper band edge (+Inf when unbounded)
}

// Report is the outcome of a passivity check.
type Report struct {
	Passive    bool
	MaxSigma   float64 // worst singular value seen
	MaxOmega   float64 // where it occurs
	Violations []Violation
	Crossings  []float64 // unit-crossing frequencies (Hamiltonian method)
	DSigma     float64   // σmax(D): asymptotic passivity
	Method     string
	// Samples counts the σ(ω) grid evaluations spent (sweep and adaptive
	// methods; golden-section peak polishing excluded).
	Samples int
	// Certificate records the certification pipeline's verdict and cost.
	// It is nil unless certification ran: CheckOptions.Certify set and the
	// method-level check reported passive (a method-level violation needs
	// no certificate — the model is exactly known to be non-passive).
	Certificate *Certificate
	// eigenDim is the dimension of the Hamiltonian eigenproblem the check
	// solved: 0 for the sampling methods and for memoized crossings.
	eigenDim int
}

func (o *CheckOptions) defaults(model *rational.Model) {
	if o.SweepPoints <= 0 {
		o.SweepPoints = 1000
	}
	if o.AdaptiveMaxStages <= 0 {
		o.AdaptiveMaxStages = 64
	}
	if o.AdaptiveMaxSamples <= 0 {
		o.AdaptiveMaxSamples = 20000
	}
	if o.OmegaMin <= 0 || o.OmegaMax <= 0 {
		lo, hi := math.Inf(1), 0.0
		for _, p := range model.Poles {
			a := math.Hypot(real(p), imag(p))
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
		}
		if math.IsInf(lo, 1) || hi == 0 {
			lo, hi = 1, 10
		}
		if o.OmegaMin <= 0 {
			o.OmegaMin = lo / 10
		}
		if o.OmegaMax <= 0 {
			o.OmegaMax = hi * 10
		}
	}
}

// Check assesses the scattering passivity of a pole-residue model.
func Check(model *rational.Model, opts CheckOptions) (*Report, error) {
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	opts.defaults(model)
	opts.Cache.bind(model)
	ws := getWorkspace()
	defer workspaces.Put(ws)
	dSigma := mat.MaxSingularValue(mat.RealToComplex(model.D))
	var rep *Report
	var err error
	switch opts.Method {
	case MethodHamiltonian:
		rep, err = checkHamiltonian(opts.Ctx, model, opts.Cache, ws)
	case MethodSweep:
		rep, err = checkSweep(model, opts, ws)
	case MethodAuto, MethodAdaptive:
		rep, err = checkAdaptive(model, opts, ws)
	default:
		return nil, fmt.Errorf("passivity: unknown method %d", opts.Method)
	}
	if err != nil {
		return nil, err
	}
	if opts.Method == MethodAuto && rep.Passive && dSigma <= 1+passivityTol &&
		2*model.NumPoles()*model.Ports() <= hamiltonianMaxDim {
		if rep, err = closeExact(model, rep, opts, ws); err != nil {
			return nil, err
		}
	}
	rep.DSigma = dSigma
	if dSigma > 1+passivityTol {
		rep.Passive = false
	}
	if opts.Certify && rep.Passive {
		if err := certifyReport(model, rep, opts); err != nil {
			return nil, err
		}
	}
	opts.emit(ProgressEvent{
		Kind:     ProgressCheck,
		MaxSigma: rep.MaxSigma,
		Passive:  rep.Passive,
		Samples:  rep.Samples,
	})
	return rep, nil
}

// closeExact re-checks a passive sampled verdict with the Hamiltonian
// eigentest and returns the exact report, which keeps the sampled report's
// σ sample count. Bands the eigentest finds join the cache's hot set.
func closeExact(model *rational.Model, sampled *Report, opts CheckOptions, ws *checkWorkspace) (*Report, error) {
	rep, err := checkHamiltonian(opts.Ctx, model, opts.Cache, ws)
	if err != nil {
		return nil, err
	}
	rep.Samples = sampled.Samples
	addHot(opts.Cache, rep.Violations)
	return rep, nil
}

// addHot appends the finite edges and the peak of every violation band to
// the cache's hot set, so the next adaptive check of this pole set samples
// those bands in its seed grid. A nil cache is a no-op.
func addHot(c *EvalCache, viols []Violation) {
	if c == nil {
		return
	}
	for _, v := range viols {
		if v.OmegaLo > 0 && !math.IsInf(v.OmegaLo, 1) {
			c.hot = append(c.hot, v.OmegaLo)
		}
		c.hot = append(c.hot, v.OmegaPeak)
		if v.OmegaHi > 0 && !math.IsInf(v.OmegaHi, 1) {
			c.hot = append(c.hot, v.OmegaHi)
		}
	}
}

// certifyReport escalates a passive method-level verdict through the
// certification pipeline and folds the outcome into the report. A pass of
// the Hamiltonian eigentest is already exact, so it certifies itself
// without a second eigensolve. The standalone check and the enforcement
// engine's convergence both certify through here.
func certifyReport(model *rational.Model, rep *Report, opts CheckOptions) error {
	if rep.Method == "hamiltonian" {
		cost := exactStageCost(rep)
		rep.Certificate = &Certificate{
			Certified: true,
			Stage:     StageHamiltonian,
			EigenDim:  cost.EigenDim,
			Stages:    []StageCost{cost},
		}
		return nil
	}
	cert, err := Certify(model, opts)
	if err != nil {
		return err
	}
	rep.Certificate = cert
	// Proven violations are appended to the report, reflected in its
	// maximum, and flip the verdict.
	for _, v := range cert.Violations {
		rep.Passive = false
		rep.Violations = append(rep.Violations, v)
		if v.SigmaPeak > rep.MaxSigma {
			rep.MaxSigma, rep.MaxOmega = v.SigmaPeak, v.OmegaPeak
		}
	}
	return nil
}

// checkHamiltonian is the exact eigentest: the level-1 crossings of the
// model (served by the cache's memo when it holds them) split the axis
// into crossing-free bands, and judgeBands decides each one. The
// certifier's Hamiltonian stage runs the same code.
func checkHamiltonian(ctx context.Context, model *rational.Model, c *EvalCache, ws *checkWorkspace) (*Report, error) {
	crossings, solved, err := memoCrossings(ctx, model, c)
	if err != nil {
		return nil, err
	}
	rep := &Report{Method: "hamiltonian", Crossings: crossings}
	if solved {
		rep.eigenDim = 2 * model.NumPoles() * model.Ports()
	}
	rep.Violations, rep.MaxSigma, rep.MaxOmega = judgeBands(model, bandsBetween(0, math.Inf(1), crossings), 1+passivityTol, c, ws)
	rep.Passive = len(rep.Violations) == 0
	return rep, nil
}

// memoNote marks a Hamiltonian stage cost whose crossings came from the
// cache's memo, so no eigenproblem was solved for it.
const memoNote = "crossings memoized from an earlier eigensolve of these residues"

// exactStageCost is the Hamiltonian stage cost of an exact report: the
// eigenproblem its check solved, or none and memoNote.
func exactStageCost(rep *Report) StageCost {
	cost := StageCost{Stage: StageHamiltonian, EigenDim: rep.eigenDim}
	if rep.eigenDim == 0 {
		cost.Note = memoNote
	}
	return cost
}

// bandsBetween splits [lo, hi] at the ascending cuts into consecutive
// bands.
func bandsBetween(lo, hi float64, cuts []float64) []CertInterval {
	bands := make([]CertInterval, 0, len(cuts)+1)
	for _, w := range cuts {
		bands = append(bands, CertInterval{Lo: lo, Hi: w})
		lo = w
	}
	return append(bands, CertInterval{Lo: lo, Hi: hi})
}

// judgeBands decides bands that hold no crossing of σ through limit: one
// σ sample at each band's testPoint settles on which side of the limit
// the whole band lies, and a band sampled above it is polished into a
// Violation. It returns the violations and the largest σ it saw (a sample
// or a polished peak) with its frequency.
func judgeBands(model *rational.Model, bands []CertInterval, limit float64, c *EvalCache, ws *checkWorkspace) (viols []Violation, maxS, maxW float64) {
	for _, b := range bands {
		test := testPoint(b.Lo, b.Hi)
		sv := cachedSigma(model, test, c, ws)
		if sv > maxS {
			maxS, maxW = sv, test
		}
		if sv > limit {
			peakW, peakS := refinePeak(model, b.Lo, b.Hi, test, c, ws)
			if peakS > maxS {
				maxS, maxW = peakS, peakW
			}
			viols = append(viols, Violation{OmegaPeak: peakW, SigmaPeak: peakS, OmegaLo: b.Lo, OmegaHi: b.Hi})
		}
	}
	return viols, maxS, maxW
}

// testPoint picks a representative frequency inside (lo, hi).
func testPoint(lo, hi float64) float64 {
	switch {
	case lo == 0 && math.IsInf(hi, 1):
		return 1
	case lo == 0:
		return hi / 2
	case math.IsInf(hi, 1):
		return lo * 2
	default:
		return math.Sqrt(lo * hi)
	}
}

// refinePeak locates the maximum of σ_max(jω) within a violation band by
// golden-section search on a bounded bracket. Evaluations route through
// the shared EvalCache (when present): a repeated check of unchanged
// residues re-polishes the band from σ hits, and the stored probes become
// anchors of the certification sweep.
func refinePeak(model *rational.Model, lo, hi, seed float64, c *EvalCache, ws *checkWorkspace) (float64, float64) {
	a, b := lo, hi
	if a == 0 {
		a = seed / 100
	}
	if math.IsInf(b, 1) {
		b = seed * 100
	}
	// Golden-section on log-ω for scale invariance.
	la, lb := math.Log(a), math.Log(b)
	const phi = 0.6180339887498949
	f := func(lw float64) float64 {
		return cachedSigma(model, math.Exp(lw), c, ws)
	}
	x1 := lb - phi*(lb-la)
	x2 := la + phi*(lb-la)
	f1, f2 := f(x1), f(x2)
	for it := 0; it < 60 && lb-la > 1e-10; it++ {
		if f1 < f2 {
			la, x1, f1 = x1, x2, f2
			x2 = la + phi*(lb-la)
			f2 = f(x2)
		} else {
			lb, x2, f2 = x2, x1, f1
			x1 = lb - phi*(lb-la)
			f1 = f(x1)
		}
	}
	lw := (la + lb) / 2
	return math.Exp(lw), f(lw)
}

// poleSeededGrid builds the sample grid shared by checkSweep and the
// adaptive stage 0: the DC point, an n-point log-spaced grid over
// [omegaMin, omegaMax], and every pole's resonance frequency with
// neighbours scaled by its damping. Narrow resonance peaks can slip
// between log-grid points; the pole seeds put samples where σ maxima
// live. The grid is appended to dst[:0] and is unsorted.
func poleSeededGrid(dst []float64, model *rational.Model, n int, omegaMin, omegaMax float64) []float64 {
	grid := dst[:0]
	if need := n + 1 + 3*len(model.Poles); cap(grid) < need {
		grid = make([]float64, 0, need)
	}
	grid = append(grid, 0)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		grid = append(grid, omegaMin*math.Pow(omegaMax/omegaMin, t))
	}
	for _, p := range model.Poles {
		wr := math.Abs(imag(p))
		if wr == 0 {
			wr = math.Abs(real(p))
		}
		if wr <= 0 {
			continue
		}
		q := math.Abs(real(p)) / (1 + wr) // relative half-width
		grid = append(grid, wr, wr*(1+q))
		// Heavily damped poles have q ≥ 1; a nonpositive lower neighbour
		// would poison the log-domain peak refinement downstream.
		if lo := wr * (1 - q); lo > 0 {
			grid = append(grid, lo)
		}
	}
	return grid
}

func checkSweep(model *rational.Model, opts CheckOptions, ws *checkWorkspace) (*Report, error) {
	rep := &Report{Method: "sweep", Passive: true}
	grid := poleSeededGrid(nil, model, opts.SweepPoints, opts.OmegaMin, opts.OmegaMax)
	sortFloats(grid)
	sv, err := sigmaBatch(opts.Ctx, model, grid, opts.Workers, opts.Cache, ws)
	if err != nil {
		return nil, err
	}
	rep.Samples = len(grid)
	assembleReport(model, grid, sv, opts.Cache, ws, rep)
	return rep, nil
}

// assembleReport turns a sampled σ(ω) grid into a Report: it records the
// global maximum, polishes near-limit local maxima by golden-section
// refinement (a peak sampled slightly off-crest can hide a violation), and
// scans contiguous runs above the limit into violation bands with
// interpolated edges. grid must be sorted ascending; sv is index-aligned
// and is sharpened in place.
func assembleReport(model *rational.Model, grid, sv []float64, c *EvalCache, ws *checkWorkspace, rep *Report) {
	for i, w := range grid {
		if sv[i] > rep.MaxSigma {
			rep.MaxSigma, rep.MaxOmega = sv[i], w
		}
	}
	// Refine every local maximum that comes close to the limit: a peak
	// sampled slightly off-crest can hide a violation.
	for i := 1; i+1 < len(grid); i++ {
		if sv[i] < 1-5e-3 || sv[i] <= sv[i-1] || sv[i] <= sv[i+1] || sv[i] > 1+passivityTol {
			continue
		}
		lo := grid[i-1]
		if lo <= 0 {
			lo = grid[i] / 10
		}
		pw, ps := refinePeak(model, lo, grid[i+1], grid[i], c, ws)
		if ps > sv[i] {
			// Record the sharpened value so the violation scan sees it.
			sv[i] = ps
			grid[i] = pw
			if ps > rep.MaxSigma {
				rep.MaxSigma, rep.MaxOmega = ps, pw
			}
		}
	}
	// Contiguous runs above 1 become violation bands.
	limit := 1 + passivityTol
	i := 0
	for i < len(grid) {
		if sv[i] <= limit {
			i++
			continue
		}
		j := i
		for j < len(grid) && sv[j] > limit {
			j++
		}
		// Band edges by linear interpolation on σ(ω).
		lo := 0.0
		if i > 0 {
			lo = interpCrossing(grid[i-1], sv[i-1], grid[i], sv[i])
		}
		hi := math.Inf(1)
		if j < len(grid) {
			hi = interpCrossing(grid[j-1], sv[j-1], grid[j], sv[j])
		}
		// Peak within the run, refined locally.
		peakIdx := i
		for k := i; k < j; k++ {
			if sv[k] > sv[peakIdx] {
				peakIdx = k
			}
		}
		bl := grid[max(peakIdx-1, 0)]
		bh := grid[min(peakIdx+1, len(grid)-1)]
		if bl <= 0 {
			bl = grid[1] / 10
		}
		peakW, peakS := refinePeak(model, bl, bh, grid[peakIdx], c, ws)
		if peakS < sv[peakIdx] {
			peakW, peakS = grid[peakIdx], sv[peakIdx]
		}
		if peakS > rep.MaxSigma {
			rep.MaxSigma, rep.MaxOmega = peakS, peakW
		}
		rep.Violations = append(rep.Violations, Violation{
			OmegaPeak: peakW, SigmaPeak: peakS, OmegaLo: lo, OmegaHi: hi,
		})
		rep.Passive = false
		i = j
	}
}

// interpCrossing linearly interpolates the ω where σ crosses 1 between two
// grid points.
func interpCrossing(w0, s0, w1, s1 float64) float64 {
	if s1 == s0 {
		return (w0 + w1) / 2
	}
	t := (1 - s0) / (s1 - s0)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return w0 + t*(w1-w0)
}
