package mat

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// fullHQR2Values is the reference the values-only iteration is pinned to:
// the same balanced Hessenberg matrix through full hqr2 (francisQR, as
// SchurDecompose runs it), which keeps the complete quasi-triangular form.
func fullHQR2Values(t testing.TB, a *Matrix) (wr, wi []float64) {
	w := a.Clone()
	Balance(w)
	HessenbergReduce(w, false)
	wr, wi, err := francisQR(nil, w, nil)
	if err != nil {
		t.Fatalf("full hqr2: %v", err)
	}
	return wr, wi
}

// hamiltonianShaped builds [[A, BBᵀ], [CᵀC, −Aᵀ]] of order 2p with q
// inputs: the block structure (and the ±λ spectral symmetry) of the
// passivity test's Hamiltonian matrix.
func hamiltonianShaped(rng *rand.Rand, p, q int) *Matrix {
	a, b, c := randMatrix(rng, p, p), randMatrix(rng, p, q), randMatrix(rng, q, p)
	for i := 0; i < p; i++ {
		a.Set(i, i, a.At(i, i)-2)
	}
	bb, cc := b.Mul(b.T()), c.T().Mul(c)
	h := NewMatrix(2*p, 2*p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			h.Set(i, j, a.At(i, j))
			h.Set(i, p+j, bb.At(i, j))
			h.Set(p+i, j, cc.At(i, j))
			h.Set(p+i, p+j, -a.At(j, i))
		}
	}
	return h
}

// TestEigenValuesMatchFullHQR2Bitwise pins the values-only Francis
// iteration behind EigenValues to full hqr2 by bits, on random, symmetric
// (real eigenvalues, so every 2×2 block is a real pair whose rotation the
// values-only form skips), Hamiltonian-shaped and pre-reduced inputs. The
// pre-reduced ones are upper Hessenberg with exact-zero and tiny
// subdiagonals, so deflation windows split and later grow back upward.
func TestEigenValuesMatchFullHQR2Bitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 24, 31, 48, 64, 97, 130, 200}
	type tc struct {
		name string
		a    *Matrix
	}
	var cases []tc
	for _, n := range sizes {
		cases = append(cases, tc{"random", randMatrix(rng, n, n)})
		sym := randMatrix(rng, n, n)
		sym = sym.Add(sym.T())
		cases = append(cases, tc{"symmetric", sym})
		pre := randMatrix(rng, n, n)
		for i := 1; i < n; i++ {
			for j := 0; j < i-1; j++ {
				pre.Set(i, j, 0)
			}
			switch i % 5 {
			case 2:
				pre.Set(i, i-1, 0)
			case 4:
				pre.Set(i, i-1, 1e-19*pre.At(i, i-1))
			}
		}
		cases = append(cases, tc{"pre-reduced", pre})
		if n%2 == 0 {
			cases = append(cases, tc{"hamiltonian", hamiltonianShaped(rng, n/2, 1+n%3)})
		}
	}
	for _, c := range cases {
		ev, err := EigenValues(c.a)
		if err != nil {
			t.Fatalf("%s n=%d: %v", c.name, c.a.Rows, err)
		}
		wr, wi := fullHQR2Values(t, c.a)
		for i := range ev {
			if math.Float64bits(real(ev[i])) != math.Float64bits(wr[i]) ||
				math.Float64bits(imag(ev[i])) != math.Float64bits(wi[i]) {
				t.Fatalf("%s n=%d: eigenvalue %d = %v, full hqr2 gives %v", c.name, c.a.Rows, i, ev[i], complex(wr[i], wi[i]))
			}
		}
	}
}

// TestEigenValuesZeroScaleFallback drives the s == 0 deflation case, where
// hqr2 takes the norm of the whole matrix: the values-only iteration must
// decline it, and EigenValues must then return full hqr2's values.
func TestEigenValuesZeroScaleFallback(t *testing.T) {
	// A cyclic shift has a zero diagonal, and so has its Hessenberg form.
	n := 6
	shift := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		shift.Set(i, (i+1)%n, 1)
	}
	rot := NewMatrixFrom([][]float64{{0, 2}, {-3, 0}})
	for _, a := range []*Matrix{rot, shift} {
		h := a.Clone()
		Balance(h)
		HessenbergReduce(h, false)
		if _, _, ok, err := francisValues(nil, h); ok || err != nil {
			t.Fatalf("n=%d: values-only iteration did not decline the s == 0 case (ok=%v, err=%v)", a.Rows, ok, err)
		}
		ev, err := EigenValues(a)
		if err != nil {
			t.Fatal(err)
		}
		wr, wi := fullHQR2Values(t, a)
		for i := range ev {
			if math.Float64bits(real(ev[i])) != math.Float64bits(wr[i]) ||
				math.Float64bits(imag(ev[i])) != math.Float64bits(wi[i]) {
				t.Fatalf("n=%d: eigenvalue %d = %v, full hqr2 gives %v", a.Rows, i, ev[i], complex(wr[i], wi[i]))
			}
		}
	}
}

// TestEigenValuesCtxCancellation: a cancelled context stops the solve
// with ctx.Err(), before the Hessenberg reduction, inside both Francis
// iterations, and under a deadline that expires inside the reduction.
func TestEigenValuesCtxCancellation(t *testing.T) {
	a := hamiltonianShaped(rand.New(rand.NewSource(5)), 150, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EigenValuesCtx(ctx, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: err = %v, want context.Canceled", err)
	}
	h := a.Clone()
	HessenbergReduce(h, false)
	if _, _, _, err := francisValues(ctx, h.Clone()); !errors.Is(err, context.Canceled) {
		t.Fatalf("values-only Francis: err = %v, want context.Canceled", err)
	}
	if _, _, err := francisQR(ctx, h, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("full hqr2: err = %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := EigenValuesCtx(ctx, a); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// BenchmarkEigenValues times the eigenvalues of an N = 192 Hamiltonian-
// shaped matrix (the paper-flow eigentest's dimension): the values-only
// iteration behind EigenValues against full hqr2 on the same input.
func BenchmarkEigenValues(b *testing.B) {
	a := hamiltonianShaped(rand.New(rand.NewSource(9)), 96, 8)
	b.Run("values-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := EigenValues(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-hqr2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fullHQR2Values(b, a)
		}
	})
}
