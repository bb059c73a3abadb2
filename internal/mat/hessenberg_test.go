package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// hessenbergReduceAt is the element-accessor Householder loop that
// HessenbergReduce replaced, applying the left reflector one column at a
// time. It is kept as the reference that pins the row-slice kernel bit for
// bit: both sum each element's reflector product in ascending row order.
func hessenbergReduceAt(a *Matrix, wantQ bool) *Matrix {
	n := a.Rows
	var vs [][]float64
	v := make([]float64, n)
	for k := 0; k < n-2; k++ {
		norm := 0.0
		for i := k + 1; i < n; i++ {
			norm = math.Hypot(norm, a.At(i, k))
		}
		if norm == 0 {
			vs = append(vs, nil)
			continue
		}
		alpha := norm
		if a.At(k+1, k) > 0 {
			alpha = -norm
		}
		v0 := a.At(k+1, k) - alpha
		for i := range v {
			v[i] = 0
		}
		v[k+1] = 1
		for i := k + 2; i < n; i++ {
			v[i] = a.At(i, k) / v0
		}
		beta := -v0 / alpha
		for c := k; c < n; c++ {
			s := 0.0
			for i := k + 1; i < n; i++ {
				s += v[i] * a.At(i, c)
			}
			s *= beta
			for i := k + 1; i < n; i++ {
				a.Set(i, c, a.At(i, c)-s*v[i])
			}
		}
		for r := 0; r < n; r++ {
			s := 0.0
			for i := k + 1; i < n; i++ {
				s += a.At(r, i) * v[i]
			}
			s *= beta
			for i := k + 1; i < n; i++ {
				a.Set(r, i, a.At(r, i)-s*v[i])
			}
		}
		a.Set(k+1, k, alpha)
		for i := k + 2; i < n; i++ {
			a.Set(i, k, 0)
		}
		stored := make([]float64, n+1)
		copy(stored[:n], v)
		stored[n] = beta
		vs = append(vs, stored)
	}
	if !wantQ {
		return nil
	}
	q := Identity(n)
	for k := 0; k < len(vs); k++ {
		stored := vs[k]
		if stored == nil {
			continue
		}
		beta := stored[n]
		for r := 0; r < n; r++ {
			s := 0.0
			for i := k + 1; i < n; i++ {
				s += q.At(r, i) * stored[i]
			}
			s *= beta
			for i := k + 1; i < n; i++ {
				q.Set(r, i, q.At(r, i)-s*stored[i])
			}
		}
	}
	return q
}

func sameBits(x, y []float64) int {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

// TestHessenbergReduceMatchesElementLoopBitwise pins the row-slice
// reduction and its Q to the element-accessor loop by bits, on random and
// balanced matrices, a Hamiltonian-shaped block matrix and one whose
// columns are already reduced (the norm == 0 skip).
func TestHessenbergReduceMatchesElementLoopBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	var cases []*Matrix
	for _, n := range []int{1, 2, 3, 4, 9, 33, 120} {
		cases = append(cases, randMatrix(rng, n, n))
	}
	bal := randMatrix(rng, 40, 40)
	for i := range bal.Data {
		bal.Data[i] *= math.Pow(10, float64(i%7-3))
	}
	Balance(bal)
	cases = append(cases, bal)
	// [[A, BBᵀ], [CᵀC, −Aᵀ]]: the block shape of a Hamiltonian matrix.
	p := 12
	a, b, c := randMatrix(rng, p, p), randMatrix(rng, p, 3), randMatrix(rng, 3, p)
	bb, cc := b.Mul(b.T()), c.T().Mul(c)
	ham := NewMatrix(2*p, 2*p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			ham.Set(i, j, a.At(i, j))
			ham.Set(i, p+j, bb.At(i, j))
			ham.Set(p+i, j, cc.At(i, j))
			ham.Set(p+i, p+j, -a.At(j, i))
		}
	}
	cases = append(cases, ham)
	upper := randMatrix(rng, 8, 8)
	for i := 2; i < 8; i++ {
		for j := 0; j < i-1; j++ {
			upper.Set(i, j, 0)
		}
	}
	cases = append(cases, upper)

	for ci, m := range cases {
		for _, wantQ := range []bool{false, true} {
			got, want := m.Clone(), m.Clone()
			q := HessenbergReduce(got, wantQ)
			qw := hessenbergReduceAt(want, wantQ)
			if i := sameBits(got.Data, want.Data); i >= 0 {
				t.Fatalf("case %d (n=%d, wantQ=%v): H[%d,%d] = %v, element loop gives %v",
					ci, m.Rows, wantQ, i/m.Cols, i%m.Cols, got.Data[i], want.Data[i])
			}
			if wantQ {
				if i := sameBits(q.Data, qw.Data); i >= 0 {
					t.Fatalf("case %d (n=%d): Q[%d,%d] = %v, element loop gives %v",
						ci, m.Rows, i/m.Cols, i%m.Cols, q.Data[i], qw.Data[i])
				}
			} else if q != nil {
				t.Fatalf("case %d: Q returned without wantQ", ci)
			}
		}
	}
}

// BenchmarkHessenbergReduce times the reduction at the paper-flow
// Hamiltonian dimension (2·n·P = 192) and a larger one.
func BenchmarkHessenbergReduce(b *testing.B) {
	for _, n := range []int{192, 500} {
		a := randMatrix(rand.New(rand.NewSource(6)), n, n)
		w := NewMatrix(n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(w.Data, a.Data)
				HessenbergReduce(w, false)
			}
		})
	}
}
