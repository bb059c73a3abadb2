package mat

import (
	"context"
	"errors"
	"math"
)

// ErrNoConvergence is returned when an iterative eigenvalue algorithm fails
// to converge within its iteration budget.
var ErrNoConvergence = errors.New("mat: eigenvalue iteration did not converge")

// Balance applies a diagonal similarity scaling D⁻¹AD in place so that row
// and column norms are roughly equal, improving the accuracy of subsequent
// eigenvalue computations (EISPACK balanc, without permutations). It returns
// the diagonal scaling factors.
func Balance(a *Matrix) []float64 {
	n := a.Rows
	d := make([]float64, n)
	for i := range d {
		d[i] = 1
	}
	const radix = 2.0
	sqrdx := radix * radix
	for done := false; !done; {
		done = true
		for i := 0; i < n; i++ {
			r, c := 0.0, 0.0
			for j := 0; j < n; j++ {
				if j != i {
					c += math.Abs(a.At(j, i))
					r += math.Abs(a.At(i, j))
				}
			}
			if c == 0 || r == 0 {
				continue
			}
			g := r / radix
			f := 1.0
			s := c + r
			for c < g {
				f *= radix
				c *= sqrdx
			}
			g = r * radix
			for c > g {
				f /= radix
				c /= sqrdx
			}
			if (c+r)/f < 0.95*s {
				done = false
				g = 1 / f
				d[i] *= f
				for j := 0; j < n; j++ {
					a.Set(i, j, a.At(i, j)*g)
				}
				for j := 0; j < n; j++ {
					a.Set(j, i, a.At(j, i)*f)
				}
			}
		}
	}
	return d
}

// HessenbergReduce reduces a to upper Hessenberg form in place using
// Householder reflections: H = QᵀAQ. If wantQ is true the orthogonal
// transformation Q is accumulated and returned; otherwise nil is returned.
//
// Every loop runs over row slices. The left reflector is applied row-outer,
// column-inner into a per-column accumulator, which keeps the summation
// order of each element (ascending row) of the column-at-a-time form, so
// the result is bit for bit the same while the memory access is
// contiguous.
func HessenbergReduce(a *Matrix, wantQ bool) *Matrix {
	q, _ := hessenbergReduce(nil, a, wantQ)
	return q
}

// hessenbergReduce is HessenbergReduce, checking ctx (nil: never
// cancelled) once per column; on cancellation it returns ctx.Err() and
// leaves a only partly reduced.
func hessenbergReduce(ctx context.Context, a *Matrix, wantQ bool) (*Matrix, error) {
	n := a.Rows
	if n != a.Cols {
		panic("mat: HessenbergReduce of non-square matrix")
	}
	var vs [][]float64 // stored reflectors for Q accumulation
	if wantQ {
		vs = make([][]float64, 0, n)
	}
	v := make([]float64, n)
	acc := make([]float64, n) // per-column sums of the left reflector
	d := a.Data
	for k := 0; k < n-2; k++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		// Householder on column k, rows k+1..n-1.
		norm := 0.0
		for i := k + 1; i < n; i++ {
			norm = math.Hypot(norm, d[i*n+k])
		}
		if norm == 0 {
			if wantQ {
				vs = append(vs, nil)
			}
			continue
		}
		alpha := norm
		if d[(k+1)*n+k] > 0 {
			alpha = -norm
		}
		v0 := d[(k+1)*n+k] - alpha
		for i := range v {
			v[i] = 0
		}
		v[k+1] = 1
		for i := k + 2; i < n; i++ {
			v[i] = d[i*n+k] / v0
		}
		beta := -v0 / alpha
		// A ← (I − β v vᵀ) A: s_c = β·Σ_i v_i·a_ic over rows i ascending,
		// then a_ic −= s_c·v_i.
		s := acc[k:n]
		for c := range s {
			s[c] = 0
		}
		for i := k + 1; i < n; i++ {
			row := d[i*n+k : (i+1)*n]
			vi := v[i]
			for c, x := range row {
				s[c] += vi * x
			}
		}
		for c := range s {
			s[c] *= beta
		}
		for i := k + 1; i < n; i++ {
			row := d[i*n+k : (i+1)*n]
			vi := v[i]
			for c, sc := range s {
				row[c] -= sc * vi
			}
		}
		// A ← A (I − β v vᵀ)
		vt := v[k+1 : n]
		for r := 0; r < n; r++ {
			row := d[r*n+k+1 : (r+1)*n]
			sum := 0.0
			for i, x := range row {
				sum += x * vt[i]
			}
			sum *= beta
			for i, vi := range vt {
				row[i] -= sum * vi
			}
		}
		// Clean the annihilated entries exactly.
		d[(k+1)*n+k] = alpha
		for i := k + 2; i < n; i++ {
			d[i*n+k] = 0
		}
		if wantQ {
			stored := make([]float64, n+1)
			copy(stored[:n], v)
			stored[n] = beta
			vs = append(vs, stored)
		}
	}
	if !wantQ {
		return nil, nil
	}
	// Accumulate Q = H₀H₁… by applying reflectors to the identity from the
	// right (equivalently build Q so that A_original = Q H Qᵀ).
	q := Identity(n)
	for k := 0; k < len(vs); k++ {
		stored := vs[k]
		if stored == nil {
			continue
		}
		beta := stored[n]
		vt := stored[k+1 : n]
		// Q ← Q (I − β v vᵀ)
		for r := 0; r < n; r++ {
			row := q.Data[r*n+k+1 : (r+1)*n]
			sum := 0.0
			for i, x := range row {
				sum += x * vt[i]
			}
			sum *= beta
			for i, vi := range vt {
				row[i] -= sum * vi
			}
		}
	}
	return q, nil
}

// ctxErr is ctx.Err() for a possibly nil ctx.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Schur holds a real Schur decomposition A = Q·T·Qᵀ where T is quasi-upper-
// triangular (1×1 blocks for real eigenvalues, 2×2 blocks with complex
// conjugate eigenvalue pairs) and Q is orthogonal.
type Schur struct {
	T *Matrix
	Q *Matrix // nil if not requested
	// Eigenvalues (paired real/imag parts).
	WR, WI []float64
}

// SchurDecompose computes the real Schur form of a square matrix using
// Hessenberg reduction followed by the Francis double-shift QR iteration
// in its Schur mode. If wantQ is false, only T and the eigenvalues are
// valid.
//
// The iteration leaves the bulges it has chased away as stale entries
// below the first subdiagonal, which it never reads again; they are
// zeroed here, so T is exactly zero there and Q·T·Qᵀ reconstructs a.
func SchurDecompose(a *Matrix, wantQ bool) (*Schur, error) {
	h := a.Clone()
	q := HessenbergReduce(h, wantQ)
	wr, wi, err := francis(nil, h, q, true)
	if err != nil {
		return nil, err
	}
	n := h.Rows
	for i := 2; i < n; i++ {
		clear(h.Data[i*n : i*n+i-1])
	}
	return &Schur{T: h, Q: q, WR: wr, WI: wi}, nil
}

// EigenValues returns the eigenvalues of a general real square matrix as
// complex numbers. The input is not modified. Balancing is applied for
// accuracy. It is EigenValuesCtx without cancellation.
func EigenValues(a *Matrix) ([]complex128, error) {
	return EigenValuesCtx(nil, a)
}

// EigenValuesCtx is EigenValues under a context: ctx (nil: never
// cancelled) is checked once per Hessenberg column and once per Francis
// iteration, and cancellation returns ctx.Err().
//
// The eigenvalues come from the values-only mode of the Francis
// iteration and are bit for bit those of its Schur mode (SchurDecompose's
// iteration) on the same balanced Hessenberg matrix. When the deflation
// test meets a zero scale (errZeroScale), the solve is rerun from a in
// the Schur mode.
func EigenValuesCtx(ctx context.Context, a *Matrix) ([]complex128, error) {
	w := a.Clone()
	Balance(w)
	if _, err := hessenbergReduce(ctx, w, false); err != nil {
		return nil, err
	}
	wr, wi, err := francis(ctx, w, nil, false)
	if err == errZeroScale {
		copy(w.Data, a.Data)
		Balance(w)
		if _, err = hessenbergReduce(ctx, w, false); err == nil {
			wr, wi, err = francis(ctx, w, nil, true)
		}
	}
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(wr))
	for i := range wr {
		out[i] = complex(wr[i], wi[i])
	}
	return out, nil
}

// errZeroScale is the values-only Francis iteration declining the s == 0
// deflation case, whose fallback reads the norm of the whole matrix.
var errZeroScale = errors.New("mat: zero deflation scale in values-only Francis iteration")

// francis runs the Francis double-shift QR iteration of hqr2 (EISPACK/
// JAMA) on the upper Hessenberg matrix h, in place, over row slices of
// h.Data, and returns the eigenvalues' real and imaginary parts. ctx (nil:
// never cancelled) is checked once per iteration.
//
// schur picks one of two modes, like LAPACK dlahqr's wantt:
//   - true: h is reduced to real Schur form. The row update of a double
//     QR step runs to column nn−1, a converged 2×2 block with real
//     eigenvalues is rotated to triangular form (so remaining 2×2 blocks
//     carry complex pairs), and a non-nil v accumulates the
//     transformations (v ← v·Z).
//   - false: the eigenvalues alone; v must be nil. The row update stops
//     at the active window's last column n, since no later window reaches
//     past n, which only decreases, and a real 2×2 block is left as it
//     is: its rows and columns lie outside every later window.
//
// The column update keeps rows 0..iMax in both modes: hqr2 never zeroes a
// negligible subdiagonal, so a window can later grow back upward over
// rows above its current top. Every value a later step reads is therefore
// the same in both modes and so are the eigenvalues, bit for bit, except
// where the deflation test meets s == 0 and falls back to the norm of the
// whole matrix, which the values-only mode does not keep: it then returns
// errZeroScale.
func francis(ctx context.Context, h, v *Matrix, schur bool) (wr, wi []float64, err error) {
	nn := h.Rows
	wr = make([]float64, nn)
	wi = make([]float64, nn)
	d := h.Data
	eps := math.Pow(2, -52)
	exshift := 0.0
	var p, q, r, s, z, w, x, y float64

	n := nn - 1
	iter := 0
	totalIter := 0
	maxTotal := 40 * nn
	for n >= 0 {
		if err := ctxErr(ctx); err != nil {
			return nil, nil, err
		}
		totalIter++
		if totalIter > maxTotal {
			return nil, nil, ErrNoConvergence
		}
		// Look for a single small sub-diagonal element.
		l := n
		for l > 0 {
			s = math.Abs(d[(l-1)*nn+l-1]) + math.Abs(d[l*nn+l])
			if s == 0 {
				if !schur {
					return nil, nil, errZeroScale
				}
				s = hessNorm(h)
			}
			if math.Abs(d[l*nn+l-1]) < eps*s {
				break
			}
			l--
		}
		rn := d[n*nn:]
		switch {
		case l == n:
			// One root found.
			rn[n] += exshift
			wr[n] = rn[n]
			wi[n] = 0
			n--
			iter = 0

		case l == n-1:
			// Two roots found.
			rm := d[(n-1)*nn:]
			w = rn[n-1] * rm[n]
			p = (rm[n-1] - rn[n]) / 2
			q = p*p + w
			z = math.Sqrt(math.Abs(q))
			rn[n] += exshift
			rm[n-1] += exshift
			x = rn[n]
			if q >= 0 {
				// Real pair.
				if p >= 0 {
					z = p + z
				} else {
					z = p - z
				}
				wr[n-1] = x + z
				wr[n] = wr[n-1]
				if z != 0 {
					wr[n] = x - w/z
				}
				wi[n-1] = 0
				wi[n] = 0
				if schur {
					// Rotate the block into triangular form.
					x = rn[n-1]
					s = math.Abs(x) + math.Abs(z)
					p = x / s
					q = z / s
					r = math.Sqrt(p*p + q*q)
					p /= r
					q /= r
					a0, a1 := rm[n-1:nn], rn[n-1:nn]
					for j := range a0 {
						z = a0[j]
						a0[j] = q*z + p*a1[j]
						a1[j] = q*a1[j] - p*z
					}
					rotateColumns(d, nn, n+1, n-1, p, q)
					if v != nil {
						rotateColumns(v.Data, nn, nn, n-1, p, q)
					}
				}
			} else {
				// Complex pair.
				wr[n-1] = x + p
				wr[n] = x + p
				wi[n-1] = z
				wi[n] = -z
			}
			n -= 2
			iter = 0

		default:
			// No convergence yet: perform a double QR step.
			x = rn[n]
			y = d[(n-1)*nn+n-1]
			w = rn[n-1] * d[(n-1)*nn+n]

			// Wilkinson's original ad hoc shift.
			if iter == 10 || iter == 20 {
				exshift += x
				for i := 0; i <= n; i++ {
					d[i*nn+i] -= x
				}
				s = math.Abs(rn[n-1]) + math.Abs(d[(n-1)*nn+n-2])
				x = 0.75 * s
				y = x
				w = -0.4375 * s * s
			}
			// MATLAB-style new ad hoc shift.
			if iter == 30 {
				s = (y - x) / 2
				s = s*s + w
				if s > 0 {
					s = math.Sqrt(s)
					if y < x {
						s = -s
					}
					s = x - w/((y-x)/2+s)
					for i := 0; i <= n; i++ {
						d[i*nn+i] -= s
					}
					exshift += s
					x = 0.964
					y = x
					w = x
				}
			}
			iter++
			if iter > 60 {
				return nil, nil, ErrNoConvergence
			}

			// Look for two consecutive small sub-diagonal elements.
			m := n - 2
			for m >= l {
				r0, r1, r2 := d[m*nn:], d[(m+1)*nn:], d[(m+2)*nn:]
				z = r0[m]
				r = x - z
				s = y - z
				p = (r*s-w)/r1[m] + r0[m+1]
				q = r1[m+1] - z - r - s
				r = r2[m+1]
				s = math.Abs(p) + math.Abs(q) + math.Abs(r)
				p /= s
				q /= s
				r /= s
				if m == l {
					break
				}
				if math.Abs(r0[m-1])*(math.Abs(q)+math.Abs(r)) <
					eps*(math.Abs(p)*(math.Abs(d[(m-1)*nn+m-1])+math.Abs(z)+math.Abs(r1[m+1]))) {
					break
				}
				m--
			}
			for i := m + 2; i <= n; i++ {
				d[i*nn+i-2] = 0
				if i > m+2 {
					d[i*nn+i-3] = 0
				}
			}

			// Double QR step on rows l..n, columns m..n; the row update
			// runs to column nn−1 in the Schur mode.
			last := n
			if schur {
				last = nn - 1
			}
			for k := m; k <= n-1; k++ {
				notlast := k != n-1
				rk, rk1 := d[k*nn:(k+1)*nn], d[(k+1)*nn:(k+2)*nn]
				var rk2 []float64
				if notlast {
					rk2 = d[(k+2)*nn : (k+3)*nn]
				}
				if k != m {
					p = rk[k-1]
					q = rk1[k-1]
					if notlast {
						r = rk2[k-1]
					} else {
						r = 0
					}
					x = math.Abs(p) + math.Abs(q) + math.Abs(r)
					if x == 0 {
						continue
					}
					p /= x
					q /= x
					r /= x
				}
				s = math.Sqrt(p*p + q*q + r*r)
				if p < 0 {
					s = -s
				}
				if s == 0 {
					continue
				}
				if k != m {
					rk[k-1] = -s * x
				} else if l != m {
					rk[k-1] = -rk[k-1]
				}
				p += s
				x = p / s
				y = q / s
				z = r / s
				q /= p
				r /= p

				// Row modification, columns k..last.
				a0, a1 := rk[k:last+1], rk1[k:last+1]
				if notlast {
					a2 := rk2[k : last+1]
					for j := range a0 {
						p = a0[j] + q*a1[j]
						p += r * a2[j]
						a2[j] -= p * z
						a0[j] -= p * x
						a1[j] -= p * y
					}
				} else {
					for j := range a0 {
						p = a0[j] + q*a1[j]
						a0[j] -= p * x
						a1[j] -= p * y
					}
				}
				// Column modification, rows 0..iMax, and the same on v.
				reflectColumns(d, nn, min(n, k+3)+1, k, notlast, x, y, z, q, r)
				if v != nil {
					reflectColumns(v.Data, nn, nn, k, notlast, x, y, z, q, r)
				}
			}
		}
	}
	return wr, wi, nil
}

// rotateColumns applies the plane rotation (q, p) of a real 2×2 block to
// columns j and j+1 of rows 0..rows−1 of the row-major nn-column d.
func rotateColumns(d []float64, nn, rows, j int, p, q float64) {
	for i := 0; i < rows; i++ {
		c := d[i*nn+j : i*nn+j+2]
		z := c[0]
		c[0] = q*z + p*c[1]
		c[1] = q*c[1] - p*z
	}
}

// reflectColumns applies a double QR step's reflector to columns k..k+2
// (k..k+1 on the window's last step) of rows 0..rows−1 of the row-major
// nn-column d.
func reflectColumns(d []float64, nn, rows, k int, notlast bool, x, y, z, q, r float64) {
	if notlast {
		for i := 0; i < rows; i++ {
			c := d[i*nn+k : i*nn+k+3]
			p := x*c[0] + y*c[1]
			p += z * c[2]
			c[2] -= p * r
			c[0] -= p
			c[1] -= p * q
		}
		return
	}
	for i := 0; i < rows; i++ {
		c := d[i*nn+k : i*nn+k+2]
		p := x*c[0] + y*c[1]
		c[0] -= p
		c[1] -= p * q
	}
}

// hessNorm is the entry-wise 1-norm of the upper Hessenberg part of h,
// summed row by row.
func hessNorm(h *Matrix) float64 {
	norm := 0.0
	n := h.Rows
	for i := 0; i < n; i++ {
		for _, x := range h.Data[i*n+max(i-1, 0) : (i+1)*n] {
			norm += math.Abs(x)
		}
	}
	return norm
}
