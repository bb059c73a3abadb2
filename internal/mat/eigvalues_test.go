package mat

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// schurModeValues is the reference the values-only mode is pinned to:
// the same balanced Hessenberg matrix through the Schur mode of the
// Francis iteration (as SchurDecompose runs it), which keeps the complete
// quasi-triangular form.
func schurModeValues(t testing.TB, a *Matrix) (wr, wi []float64) {
	w := a.Clone()
	Balance(w)
	HessenbergReduce(w, false)
	wr, wi, err := francis(nil, w, nil, true)
	if err != nil {
		t.Fatalf("Schur mode: %v", err)
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

// TestEigenValuesMatchFullHQR2Bitwise pins the values-only mode of the
// Francis iteration behind EigenValues to its Schur mode by bits, on the
// inputs of eigenBitwiseCases.
func TestEigenValuesMatchFullHQR2Bitwise(t *testing.T) {
	for _, c := range eigenBitwiseCases() {
		ev, err := EigenValues(c.a)
		if err != nil {
			t.Fatalf("%s n=%d: %v", c.name, c.a.Rows, err)
		}
		wr, wi := schurModeValues(t, c.a)
		for i := range ev {
			if math.Float64bits(real(ev[i])) != math.Float64bits(wr[i]) ||
				math.Float64bits(imag(ev[i])) != math.Float64bits(wi[i]) {
				t.Fatalf("%s n=%d: eigenvalue %d = %v, Schur mode gives %v", c.name, c.a.Rows, i, ev[i], complex(wr[i], wi[i]))
			}
		}
	}
}

// TestEigenValuesZeroScaleFallback drives the s == 0 deflation case, where
// hqr2 takes the norm of the whole matrix: the values-only mode must
// decline it, and EigenValues must then return the Schur mode's values.
func TestEigenValuesZeroScaleFallback(t *testing.T) {
	for _, c := range zeroScaleCases() {
		a := c.a
		h := a.Clone()
		Balance(h)
		HessenbergReduce(h, false)
		if _, _, err := francis(nil, h, nil, false); err != errZeroScale {
			t.Fatalf("%s: values-only mode did not decline the s == 0 case (err=%v)", c.name, err)
		}
		ev, err := EigenValues(a)
		if err != nil {
			t.Fatal(err)
		}
		wr, wi := schurModeValues(t, a)
		for i := range ev {
			if math.Float64bits(real(ev[i])) != math.Float64bits(wr[i]) ||
				math.Float64bits(imag(ev[i])) != math.Float64bits(wi[i]) {
				t.Fatalf("%s: eigenvalue %d = %v, Schur mode gives %v", c.name, i, ev[i], complex(wr[i], wi[i]))
			}
		}
	}
}

// TestEigenValuesCtxCancellation: a cancelled context stops the solve
// with ctx.Err(), before the Hessenberg reduction, inside both modes of
// the Francis iteration, and under a deadline that expires inside the reduction.
func TestEigenValuesCtxCancellation(t *testing.T) {
	a := hamiltonianShaped(rand.New(rand.NewSource(5)), 150, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EigenValuesCtx(ctx, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: err = %v, want context.Canceled", err)
	}
	h := a.Clone()
	HessenbergReduce(h, false)
	for _, schur := range []bool{false, true} {
		if _, _, err := francis(ctx, h.Clone(), nil, schur); !errors.Is(err, context.Canceled) {
			t.Fatalf("schur=%v: err = %v, want context.Canceled", schur, err)
		}
	}
	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := EigenValuesCtx(ctx, a); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// BenchmarkEigenValues times the eigenvalues of an N = 192 Hamiltonian-
// shaped matrix (the paper-flow eigentest's dimension): the values-only
// mode behind EigenValues against the Schur mode on the same input.
func BenchmarkEigenValues(b *testing.B) {
	a := hamiltonianShaped(rand.New(rand.NewSource(9)), 96, 8)
	b.Run("values-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := EigenValues(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("schur", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			schurModeValues(b, a)
		}
	})
}
