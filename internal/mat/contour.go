package mat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// This file implements the contour-quadrature kernel behind the
// argument-principle eigenvalue counter: the number of eigenvalues of a
// real matrix M inside a closed contour C equals
//
//	N = (1/2πi) ∮_C tr[(zI − M)⁻¹] dz = (1/2πi) ∮_C d log det(zI − M),
//
// i.e. the winding number of det(zI − M) around the origin as z walks C.
// The integrand is the logarithmic-derivative trace; integrating it exactly
// along the contour is the total change of arg det(zI − M), which the
// kernel accumulates as a sum of wrapped phase steps over an adaptively
// bisected node set — each step is refined until its principal-value phase
// change is provably the true one (|Δφ| below contourMaxStep ≪ π), and the
// whole quadrature is accepted only when the resulting winding is within
// contourIntTol of an integer at two consecutive refinement levels that
// agree. Each node costs one determinant evaluation through the
// evaluator's DetBackend — a full complex LU of (zI − M) on the dense
// oracle path, an O(N·p²) determinant-lemma sweep on the structured path —
// and only the determinant's argument (plus an overflow-free
// log-magnitude) is taken from the factors.

// ErrContourStall is returned when the contour quadrature cannot stabilize
// to an integer within its node budget — the typical cause is an eigenvalue
// lying on (or hugging) the contour itself. Callers should perturb the
// rectangle and retry.
var ErrContourStall = errors.New("mat: contour quadrature did not stabilize (eigenvalue on or near the contour)")

// RectContour is an axis-aligned rectangle in the complex plane, walked
// counterclockwise by the quadrature.
type RectContour struct {
	ReLo, ReHi float64 // real-part bounds, ReLo < ReHi
	ImLo, ImHi float64 // imaginary-part bounds, ImLo < ImHi
}

// ContourOptions tunes CountRect. The zero value selects the defaults.
type ContourOptions struct {
	// InitNodes is the initial node count per rectangle side (default 8;
	// corners are always nodes — the integrand kinks there).
	InitNodes int
	// MaxNodes bounds the determinant evaluations of one CountRect call
	// (default 2048). Exceeding it returns ErrContourStall.
	MaxNodes int
}

const (
	// contourMaxStep is the largest accepted phase step between adjacent
	// nodes at the first refinement level, in radians; every further level
	// halves it.
	contourMaxStep = math.Pi / 2
	// contourIntTol is the accepted distance of the winding number from an
	// integer.
	contourIntTol = 0.25
	// contourCtxBatch is the number of determinant evaluations between two
	// context checks of one CountRect call.
	contourCtxBatch = 32
)

func (o *ContourOptions) defaults() {
	if o.InitNodes <= 0 {
		o.InitNodes = 8
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 2048
	}
}

// ContourEvaluator counts eigenvalues of one real matrix inside
// rectangular contours, delegating the per-node determinant to a
// DetBackend (the dense complex LU by default; a StructuredShifted kernel
// for diagonal-plus-low-rank matrices). It is not safe for concurrent use.
type ContourEvaluator struct {
	b DetBackend
	// Nodes counts the determinant evaluations performed over the
	// evaluator's lifetime.
	Nodes int
}

// NewContourEvaluator prepares an evaluator for the square matrix m over
// the dense LU backend (the matrix is retained, not copied).
func NewContourEvaluator(m *Matrix) *ContourEvaluator {
	return NewContourEvaluatorBackend(NewDenseShifted(m))
}

// NewContourEvaluatorBackend prepares an evaluator over an arbitrary
// determinant backend.
func NewContourEvaluatorBackend(b DetBackend) *ContourEvaluator {
	return &ContourEvaluator{b: b}
}

// Dim returns the matrix dimension.
func (e *ContourEvaluator) Dim() int { return e.b.Dim() }

// EigenBound returns the backend's rigorous bound on the magnitude of
// every eigenvalue of the matrix.
func (e *ContourEvaluator) EigenBound() float64 { return e.b.EigenBound() }

// detPhasePivot counts the node and delegates to the backend; the second
// result is the spectrum-proximity alarm (an upper bound on σ_min(zI − M)
// that collapses as z approaches the spectrum). The quadrature uses it to
// rule out aliasing: a contour chord longer than the endpoint's alarm
// floor may hide an eigenvalue (and a full 2π of phase) between its nodes.
func (e *ContourEvaluator) detPhasePivot(z complex128) (float64, float64, error) {
	e.Nodes++
	return e.b.DetPhasePivot(z)
}

// DenseShifted is the dense DetBackend: one in-place complex LU
// factorization of zI − M per DetPhasePivot call, O(N³) time and O(N²)
// scratch. It is the oracle the structured kernel is cross-validated
// against. Not safe for concurrent use.
type DenseShifted struct {
	m       *Matrix
	scratch []complex128
}

// NewDenseShifted prepares the dense backend for the square matrix m (the
// matrix is retained, not copied).
func NewDenseShifted(m *Matrix) *DenseShifted {
	if m.Rows != m.Cols {
		panic("mat: NewDenseShifted of non-square matrix")
	}
	n := m.Rows
	return &DenseShifted{m: m, scratch: make([]complex128, n*n)}
}

// Dim returns the matrix dimension.
func (e *DenseShifted) Dim() int { return e.m.Rows }

// EigenBound returns a rigorous bound on the magnitude of every eigenvalue
// of the matrix: min(‖M‖∞, ‖M‖₁) (both are induced norms, so every
// eigenvalue satisfies |λ| ≤ ‖M‖).
func (e *DenseShifted) EigenBound() float64 {
	n := e.m.Rows
	colSum := make([]float64, n)
	inf := 0.0
	for i := 0; i < n; i++ {
		row := e.m.Row(i)
		rs := 0.0
		for j, v := range row {
			a := math.Abs(v)
			rs += a
			colSum[j] += a
		}
		if rs > inf {
			inf = rs
		}
	}
	one := 0.0
	for _, s := range colSum {
		if s > one {
			one = s
		}
	}
	return math.Min(inf, one)
}

// DetPhasePivot returns the principal argument of det(zI − M) in (−π, π]
// via an in-place complex LU factorization with partial pivoting, plus the
// smallest pivot magnitude — an upper bound on σ_min(zI − M) that tracks
// the distance from z to the spectrum. ErrSingular reports that z is
// (numerically) an eigenvalue.
func (e *DenseShifted) DetPhasePivot(z complex128) (float64, float64, error) {
	n := e.m.Rows
	a := e.scratch
	for i := 0; i < n; i++ {
		row := e.m.Row(i)
		base := i * n
		for j := 0; j < n; j++ {
			a[base+j] = -complex(row[j], 0)
		}
		a[base+i] += z
	}
	phase := 0.0
	logAbs := 0.0
	minPiv := math.Inf(1)
	for k := 0; k < n; k++ {
		// Partial pivot on |entry| in column k.
		p, mx := k, cmplx.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if ab := cmplx.Abs(a[i*n+k]); ab > mx {
				mx, p = ab, i
			}
		}
		if mx == 0 {
			return 0, 0, ErrSingular
		}
		if p != k {
			rk, rp := a[k*n:(k+1)*n], a[p*n:(p+1)*n]
			for j := k; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			phase += math.Pi // row swap flips the determinant sign
		}
		pivot := a[k*n+k]
		phase += cmplx.Phase(pivot)
		logAbs += math.Log(mx)
		if mx < minPiv {
			minPiv = mx
		}
		for i := k + 1; i < n; i++ {
			m := a[i*n+k] / pivot
			if m == 0 {
				continue
			}
			ri, rk := a[i*n:(i+1)*n], a[k*n:(k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	if math.IsInf(logAbs, -1) || math.IsNaN(logAbs) {
		return 0, 0, ErrSingular
	}
	return wrapPi(phase), minPiv, nil
}

// wrapPi reduces an angle to (−π, π].
func wrapPi(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a <= -math.Pi {
		a += 2 * math.Pi
	} else if a > math.Pi {
		a -= 2 * math.Pi
	}
	return a
}

// rectPoint maps the perimeter parameter t ∈ [0, 4) onto the rectangle,
// counterclockwise from the bottom-left corner: side 0 is the bottom edge
// (left → right), 1 the right edge (up), 2 the top edge (right → left),
// 3 the left edge (down).
func (r RectContour) rectPoint(t float64) complex128 {
	side := int(t)
	f := t - float64(side)
	switch side & 3 {
	case 0:
		return complex(r.ReLo+f*(r.ReHi-r.ReLo), r.ImLo)
	case 1:
		return complex(r.ReHi, r.ImLo+f*(r.ImHi-r.ImLo))
	case 2:
		return complex(r.ReHi-f*(r.ReHi-r.ReLo), r.ImHi)
	default:
		return complex(r.ReLo, r.ImHi-f*(r.ImHi-r.ImLo))
	}
}

// contourRun accumulates the winding of det(zI − M) around one rectangle
// at one refinement level, sharing evaluated phases across levels through
// the cache (keyed by the dyadic perimeter parameter, so keys are exact).
type contourRun struct {
	ctx       context.Context
	e         *ContourEvaluator
	rect      RectContour
	cache     map[float64]phasePoint
	start     int // evaluator node count when the run began
	limit     int // evaluator node budget (absolute)
	initNodes int // initial nodes per side
}

// phasePoint is one evaluated contour node: the principal argument of
// det(zI − M) and the smallest LU pivot magnitude (spectrum-proximity
// alarm).
type phasePoint struct {
	phi float64
	piv float64
}

func (c *contourRun) phase(t float64) (phasePoint, error) {
	if p, ok := c.cache[t]; ok {
		return p, nil
	}
	if c.e.Nodes >= c.limit {
		return phasePoint{}, ErrContourStall
	}
	if (c.e.Nodes-c.start)%contourCtxBatch == 0 {
		if err := ctxErr(c.ctx); err != nil {
			return phasePoint{}, err
		}
	}
	phi, piv, err := c.e.detPhasePivot(c.rect.rectPoint(t))
	if err != nil {
		return phasePoint{}, err
	}
	p := phasePoint{phi: phi, piv: piv}
	c.cache[t] = p
	return p, nil
}

// maxContourDepth bounds the bisection depth of one contour segment: 2⁻⁴⁰
// of a rectangle side is far below the separation any representable
// eigenvalue geometry produces, so hitting it means the phase step never
// settles (eigenvalue on the contour).
const maxContourDepth = 40

// winding accumulates the wrapped phase steps over the adaptively bisected
// perimeter at the given step threshold. Initial nodes are initNodes per
// side (corners included exactly once); midpoints are dyadic in the
// perimeter parameter so repeated levels share cache entries exactly.
//
// A chord is bisected when its wrapped phase step exceeds maxStep OR when
// it is too long for the endpoint pivot floors to rule out aliasing. The
// phase derivative along the contour is |tr((zI−M)⁻¹)| ≤ dim/dist(z, spec),
// so the true phase change over a chord is at most chord·dim/dist; using
// the smaller endpoint pivot (which collapses near the spectrum) as the
// distance proxy, the step is trusted only when chord·dim ≤ maxStep·pivot —
// then the true change stays below maxStep < π and cannot wrap. Without
// the dim factor an eigenvalue cloud near a long edge threads whole turns
// of phase between nodes whose wrapped steps all look small.
func (c *contourRun) winding(maxStep float64) (float64, error) {
	var total float64
	pivScale := maxStep / float64(c.e.Dim())
	chord := func(t0, t1 float64) float64 {
		return cmplx.Abs(c.rect.rectPoint(t1) - c.rect.rectPoint(t0))
	}
	var rec func(t0 float64, p0 phasePoint, t1 float64, p1 phasePoint, depth int) error
	rec = func(t0 float64, p0 phasePoint, t1 float64, p1 phasePoint, depth int) error {
		d := wrapPi(p1.phi - p0.phi)
		if math.Abs(d) <= maxStep && chord(t0, t1) <= pivScale*math.Min(p0.piv, p1.piv) {
			total += d
			return nil
		}
		if depth >= maxContourDepth {
			return ErrContourStall
		}
		tm := (t0 + t1) / 2
		pm, err := c.phase(tm)
		if err != nil {
			return err
		}
		if err := rec(t0, p0, tm, pm, depth+1); err != nil {
			return err
		}
		return rec(tm, pm, t1, p1, depth+1)
	}
	n := c.initNodes
	ts := make([]float64, 0, 4*n)
	for side := 0; side < 4; side++ {
		for i := 0; i < n; i++ {
			ts = append(ts, float64(side)+float64(i)/float64(n))
		}
	}
	ps := make([]phasePoint, len(ts))
	for i, t := range ts {
		p, err := c.phase(t)
		if err != nil {
			return 0, err
		}
		ps[i] = p
	}
	for i := range ts {
		j := (i + 1) % len(ts)
		t1 := ts[j]
		if j == 0 {
			t1 = 4 // close the loop without re-evaluating t=0
		}
		if err := rec(ts[i], ps[i], t1, ps[j], 0); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// CountRect counts the eigenvalues of the evaluator's matrix inside the
// rectangle by the argument principle. The quadrature is accepted only when
// the winding number lands within contourIntTol of the same integer at two
// consecutive refinement levels; otherwise it returns
// ErrContourStall (typically an eigenvalue on the contour — perturb the
// rectangle and retry). ErrSingular reports a node landing exactly on an
// eigenvalue. ctx (nil: never cancelled) is checked before the first node
// and after every contourCtxBatch nodes; cancellation returns ctx.Err().
func (e *ContourEvaluator) CountRect(ctx context.Context, rect RectContour, opts ContourOptions) (int, error) {
	opts.defaults()
	if !(rect.ReLo < rect.ReHi) || !(rect.ImLo < rect.ImHi) {
		return 0, fmt.Errorf("mat: CountRect of empty rectangle %+v", rect)
	}
	run := &contourRun{
		ctx:   ctx,
		e:     e,
		rect:  rect,
		cache: make(map[float64]phasePoint),
		start: e.Nodes,
		limit: e.Nodes + opts.MaxNodes,
	}
	// Progressive refinement: each level doubles the initial grid (a dyadic
	// superset of the previous one, so cached phases are reused) and halves
	// the accepted phase step. Doubling the grid — not just tightening the
	// step — is what breaks phase aliasing: a true step of 2π−ε wraps to −ε
	// and passes any step threshold, but the inserted midpoint exposes it.
	// The count is accepted when two consecutive levels land on the same
	// integer within contourIntTol.
	const maxLevels = 6
	prev := math.NaN()
	nodes := opts.InitNodes
	step := contourMaxStep
	for level := 0; level < maxLevels; level++ {
		run.initNodes = nodes
		w, err := run.winding(step)
		if err != nil {
			return 0, err
		}
		k := math.Round(w / (2 * math.Pi))
		if !math.IsNaN(prev) {
			pk := math.Round(prev / (2 * math.Pi))
			if pk == k &&
				math.Abs(w/(2*math.Pi)-k) <= contourIntTol &&
				math.Abs(prev/(2*math.Pi)-pk) <= contourIntTol {
				if k < 0 {
					// A negative winding around a counterclockwise contour
					// is a quadrature failure, never a valid count.
					return 0, ErrContourStall
				}
				return int(k), nil
			}
		}
		prev = w
		nodes *= 2
		step /= 2
	}
	return 0, ErrContourStall
}
