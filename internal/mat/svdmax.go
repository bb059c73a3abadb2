package mat

import (
	"math"
	"math/cmplx"
)

// MaxSingularValueInto returns the spectral norm σ_max(a) = ‖a‖₂ without
// computing any other singular value. It forms the Hermitian Gram matrix
// G = aᴴa (aaᴴ when a has fewer rows than columns), reduces G to a real
// symmetric tridiagonal matrix with complex Householder reflectors, and
// finds λ_max(G) by Sturm-count bisection from Gershgorin and Cauchy
// interlacing bounds; σ_max = √λ_max. It uses closed forms instead when
// the short dimension is 1 or 2: |a₁₁| for a 1×1 a, √g₁₁ for a single row
// or column, and λ_max = ½(g₁₁+g₂₂) + √(¼(g₁₁−g₂₂)² + |g₂₁|²) for a 2×2
// Gram matrix (a sum of two non-negative terms, so no cancellation).
//
// Bisection is a direct method: it converges to the top eigenvalue of the
// tridiagonal matrix whatever the gap to the next one, so clusters of
// nearly equal singular values cost nothing extra in accuracy or time
// (unlike power or subspace iteration). The error bound is stated in the
// package documentation. An input whose Gram matrix would overflow or
// underflow is rescaled by a power of two, which is exact. A NaN entry
// yields NaN and an infinite one +Inf.
//
// The buffers live in ws: after one call at a given size the kernel
// performs no allocations. It shares ws with CSVDecomposeInto but leaves
// its outputs untouched.
func MaxSingularValueInto(ws *CSVDWorkspace, a *CMatrix) float64 {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if k == 0 {
		return 0
	}
	if m == 1 && n == 1 {
		return cmplx.Abs(a.Data[0])
	}
	ws.g = growC(ws.g, k*k)
	// The diagonal of G sums to ‖a‖²_F, which bounds every entry of G.
	// Outside [2^−500, 2^500] the squares the reduction forms could
	// overflow or underflow: rescale a by a power of two (exact) and redo
	// the Gram matrix.
	exp := 0
	if tr := gram(ws.g, a); !(tr >= 0x1p-500 && tr <= 0x1p500) {
		amax := 0.0
		for _, z := range a.Data {
			amax = max(amax, math.Abs(real(z)), math.Abs(imag(z)))
		}
		switch {
		case math.IsNaN(amax):
			return math.NaN()
		case math.IsInf(amax, 1):
			return math.Inf(1)
		case amax == 0:
			return 0
		}
		_, exp = math.Frexp(amax)
		ws.scaled = reuseCMatrix(ws.scaled, m, n)
		f := complex(math.Ldexp(1, -exp), 0)
		for i, z := range a.Data {
			ws.scaled.Data[i] = z * f
		}
		gram(ws.g, ws.scaled)
	}
	var lambda float64
	switch k {
	case 1:
		lambda = real(ws.g[0])
	case 2:
		g11, g22, g21 := real(ws.g[0]), real(ws.g[3]), ws.g[1]
		h := 0.5 * (g11 - g22)
		lambda = 0.5*(g11+g22) + math.Sqrt(h*h+real(g21)*real(g21)+imag(g21)*imag(g21))
	default:
		ws.d = growF(ws.d, k)
		ws.e2 = growF(ws.e2, k-1)
		ws.p = growC(ws.p, k)
		hermitianTridiagonal(ws.g, k, ws.d, ws.e2, ws.p)
		lambda = sturmMaxEigenvalue(ws.d, ws.e2)
	}
	sigma := math.Sqrt(max(lambda, 0))
	if exp != 0 {
		sigma = math.Ldexp(sigma, exp)
	}
	return sigma
}

// gram writes the lower triangle of the Hermitian Gram matrix of a into g
// as a packed column-major k×k array (g[j*k+i] = G[i][j] for i ≥ j), with
// k = min(rows, cols), and returns its trace ‖a‖²_F. A square or wide a
// gives G = aaᴴ, one row inner product per entry; a tall a gives G = aᴴa,
// one rank-1 update per row. Both read a contiguously. The strict upper
// triangle of g is not written.
func gram(g []complex128, a *CMatrix) float64 {
	m, n := a.Rows, a.Cols
	trace := 0.0
	if m <= n {
		k := m
		for j := 0; j < k; j++ {
			rj := a.Data[j*n : (j+1)*n]
			col := g[j*k : (j+1)*k]
			for i := j; i < k; i++ {
				ri := a.Data[i*n : (i+1)*n]
				ri = ri[:len(rj)]
				var re, im float64
				for c, y := range rj {
					x := ri[c]
					// G[i][j] += a[i][c]·conj(a[j][c])
					re += real(x)*real(y) + imag(x)*imag(y)
					im += imag(x)*real(y) - real(x)*imag(y)
				}
				col[i] = complex(re, im)
			}
			trace += real(col[j])
		}
		return trace
	}
	k := n
	for i := range g[:k*k] {
		g[i] = 0
	}
	for r := 0; r < m; r++ {
		row := a.Data[r*n : (r+1)*n]
		for j, aj := range row {
			src := row[j:]
			col := g[j*k+j : (j+1)*k]
			col = col[:len(src)]
			for i, ai := range src {
				// G[j+i][j] += conj(a[r][j+i])·a[r][j]
				col[i] += complex(
					real(ai)*real(aj)+imag(ai)*imag(aj),
					real(ai)*imag(aj)-imag(ai)*real(aj))
			}
		}
	}
	for j := 0; j < k; j++ {
		trace += real(g[j*k+j])
	}
	return trace
}

// hermitianTridiagonal reduces the Hermitian matrix whose lower triangle g
// holds (packed column-major, k×k, k ≥ 3) to a real symmetric tridiagonal
// matrix by unitary similarity, overwriting g. It writes the diagonal into
// d and the squared moduli of the subdiagonal into e2 — all the Sturm
// count needs, and invariant under the diagonal unitary scaling that makes
// the subdiagonal real. p is a scratch vector of length ≥ k.
//
// Step j applies H = I − τvvᴴ, with v = x − βe₁ and β = −(x₀/|x₀|)‖x‖ so
// that v₀ = (x₀/|x₀|)(|x₀|+‖x‖) suffers no cancellation, to the column
// x = G[j+1:, j] and to the trailing block B from both sides through the
// rank-2 form B ← B − vwᴴ − wvᴴ, w = p − (τ/2)(vᴴp)v, p = τBv.
func hermitianTridiagonal(g []complex128, k int, d, e2 []float64, p []complex128) {
	for j := 0; j < k-2; j++ {
		d[j] = real(g[j*k+j])
		v := g[j*k+j+1 : (j+1)*k] // x, overwritten by v in place
		x0 := v[0]
		tail := 0.0
		for _, z := range v[1:] {
			tail += real(z)*real(z) + imag(z)*imag(z)
		}
		if tail == 0 {
			// Nothing to annihilate: |x₀| is the subdiagonal modulus.
			e2[j] = real(x0)*real(x0) + imag(x0)*imag(x0)
			continue
		}
		a0 := cmplx.Abs(x0)
		norm := math.Sqrt(a0*a0 + tail)
		e2[j] = norm * norm
		phase := complex(1, 0)
		if a0 > 0 {
			phase = complex(real(x0)/a0, imag(x0)/a0)
		}
		v[0] = phase * complex(a0+norm, 0)
		tau := 2 / ((a0+norm)*(a0+norm) + tail)

		// p = τ·B·v over the stored lower triangle of B = G[j+1:, j+1:].
		r := k - j - 1
		p := p[:r]
		for i := range p {
			p[i] = 0
		}
		for l := 0; l < r; l++ {
			bl := g[(j+1+l)*k+j+1+l : (j+2+l)*k] // B[l:, l]
			vl := v[l]
			vt := v[l+1 : l+len(bl)]
			pt := p[l+1 : l+len(bl)]
			var accRe, accIm float64
			for i, b := range bl[1:] {
				pt[i] += b * vl
				// conj(b)·v[l+1+i]
				y := vt[i]
				accRe += real(b)*real(y) + imag(b)*imag(y)
				accIm += real(b)*imag(y) - imag(b)*real(y)
			}
			p[l] += complex(real(bl[0]), 0)*vl + complex(accRe, accIm)
		}
		vp := 0.0
		for i := range p {
			p[i] *= complex(tau, 0)
			vp += real(v[i])*real(p[i]) + imag(v[i])*imag(p[i])
		}
		half := complex(0.5*tau*vp, 0)
		for i := range p {
			p[i] -= half * v[i]
		}
		// B ← B − v·wᴴ − w·vᴴ on the lower triangle (w is held in p).
		for l := 0; l < r; l++ {
			bl := g[(j+1+l)*k+j+1+l : (j+2+l)*k]
			cv, cw := cmplx.Conj(v[l]), cmplx.Conj(p[l])
			vt, wt := v[l:l+len(bl)], p[l:l+len(bl)]
			for i := range bl {
				bl[i] -= vt[i]*cw + wt[i]*cv
			}
		}
	}
	d[k-2] = real(g[(k-2)*k+k-2])
	d[k-1] = real(g[(k-1)*k+k-1])
	z := g[(k-2)*k+k-1]
	e2[k-2] = real(z)*real(z) + imag(z)*imag(z)
}

// sturmMaxEigenvalue returns the largest eigenvalue of the symmetric
// tridiagonal matrix with diagonal d and squared off-diagonal e2, by
// bisection on the Sturm count of negative pivots in the LDLᵀ
// factorization of T − xI. The bracket starts at the largest top
// eigenvalue of the 2×2 principal blocks (a lower bound by Cauchy
// interlacing) and the Gershgorin upper bound, and the bisection runs
// until the bracket is a few ulps wide, so the result is accurate to a
// small multiple of ε·‖T‖.
func sturmMaxEigenvalue(d, e2 []float64) float64 {
	k := len(d)
	emax2 := 0.0
	for _, v := range e2 {
		emax2 = max(emax2, v)
	}
	// Pivot floor as in LAPACK's dstebz: keeps the recurrence finite when
	// a pivot vanishes.
	pivmin := 0x1p-1022 * max(1, emax2)
	lo, hi := math.Inf(-1), math.Inf(-1)
	tnorm := 0.0
	prevE := 0.0
	for i := 0; i < k; i++ {
		e := 0.0
		if i < k-1 {
			e = math.Sqrt(e2[i])
			b := 0.5*(d[i]+d[i+1]) + math.Hypot(0.5*(d[i]-d[i+1]), e)
			lo = max(lo, b)
		}
		hi = max(hi, d[i]+prevE+e)
		tnorm = max(tnorm, math.Abs(d[i])+prevE+e)
		prevE = e
	}
	// Widen the upper end so the count there is k despite rounding.
	hi += 4*epsilon*tnorm + 2*pivmin
	tol := 2*epsilon*tnorm + pivmin
	// Quadrisection: three Sturm counts per pass run as independent
	// recurrences, so their divisions overlap and a pass costs about the
	// latency of one count while it narrows the bracket fourfold.
	for it := 0; it < 64 && hi-lo > tol; it++ {
		w := hi - lo
		x1, x2, x3 := lo+0.25*w, lo+0.5*w, lo+0.75*w
		if !(lo < x1 && x1 < x2 && x2 < x3 && x3 < hi) {
			break
		}
		c1, c2, c3 := sturmCount3(d, e2, x1, x2, x3, pivmin)
		switch {
		case c1 == k:
			hi = x1
		case c2 == k:
			lo, hi = x1, x2
		case c3 == k:
			lo, hi = x2, x3
		default:
			lo = x3
		}
	}
	return lo + 0.5*(hi-lo)
}

// epsilon is the unit roundoff of float64 (2⁻⁵³).
const epsilon = 0x1p-53

// sturmCount3 returns, for each of x1, x2, x3, the number of eigenvalues
// of the tridiagonal matrix (d, e2) that are ≤ x, as the number of
// non-positive pivots of the LDLᵀ factorization of T − xI. A pivot smaller
// in magnitude than pivmin is replaced by −pivmin (LAPACK's dstebz rule),
// which keeps the recurrence finite.
func sturmCount3(d, e2 []float64, x1, x2, x3, pivmin float64) (c1, c2, c3 int) {
	q1, q2, q3 := d[0]-x1, d[0]-x2, d[0]-x3
	e2 = e2[:len(d)-1]
	for i := 0; ; i++ {
		if math.Abs(q1) < pivmin {
			q1 = -pivmin
		}
		if math.Abs(q2) < pivmin {
			q2 = -pivmin
		}
		if math.Abs(q3) < pivmin {
			q3 = -pivmin
		}
		if q1 <= 0 {
			c1++
		}
		if q2 <= 0 {
			c2++
		}
		if q3 <= 0 {
			c3++
		}
		if i == len(e2) {
			return
		}
		di, ei := d[i+1], e2[i]
		q1 = di - x1 - ei/q1
		q2 = di - x2 - ei/q2
		q3 = di - x3 - ei/q3
	}
}
