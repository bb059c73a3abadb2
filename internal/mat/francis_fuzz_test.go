package mat

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzFrancisModes drives both modes of the Francis iteration with small
// random, symmetric, Hessenberg-shaped (exact-zero and tiny subdiagonals),
// Hamiltonian-shaped and {−1, 0, 1}-valued inputs (the last often meet the
// s == 0 deflation case) and checks that
//   - the values-only mode's eigenvalues equal the Schur mode's bit for
//     bit on the same balanced Hessenberg matrix, unless it declines the
//     s == 0 case, and EigenValues equals the Schur mode either way;
//   - SchurDecompose reconstructs its input: ‖Q·T·Qᵀ − A‖ within the
//     tolerance of TestSchurReconstruction, with T exactly zero below its
//     first subdiagonal.
func FuzzFrancisModes(f *testing.F) {
	for shape := uint8(0); shape < 5; shape++ {
		f.Add(int64(24), int64(7), shape)
		f.Add(int64(-5), int64(12), shape)
	}
	f.Fuzz(func(t *testing.T, seed, dim int64, shape uint8) {
		n := 1 + int(((dim%12)+12)%12) // 1..12
		rng := rand.New(rand.NewSource(seed))
		var a *Matrix
		switch shape % 5 {
		case 0:
			a = randMatrix(rng, n, n)
		case 1:
			a = randMatrix(rng, n, n)
			a = a.Add(a.T())
		case 2:
			a = randMatrix(rng, n, n)
			for i := 1; i < n; i++ {
				for j := 0; j < i-1; j++ {
					a.Set(i, j, 0)
				}
				switch rng.Intn(4) {
				case 0:
					a.Set(i, i-1, 0)
				case 1:
					a.Set(i, i-1, 1e-19*a.At(i, i-1))
				}
			}
		case 3:
			a = hamiltonianShaped(rng, 1+n/2, 1+n%3)
			n = a.Rows
		default:
			a = NewMatrix(n, n)
			for i := range a.Data {
				a.Data[i] = float64(rng.Intn(3) - 1)
			}
		}

		h := a.Clone()
		Balance(h)
		HessenbergReduce(h, false)
		wr, wi, err := francis(nil, h.Clone(), nil, true)
		if err != nil {
			t.Skipf("Schur mode: %v", err)
		}
		vr, vi, err := francis(nil, h.Clone(), nil, false)
		switch err {
		case nil:
			for i := range wr {
				if math.Float64bits(vr[i]) != math.Float64bits(wr[i]) || math.Float64bits(vi[i]) != math.Float64bits(wi[i]) {
					t.Fatalf("n=%d shape %d: values-only eigenvalue %d = %v, Schur mode %v", n, shape%5, i, complex(vr[i], vi[i]), complex(wr[i], wi[i]))
				}
			}
		case errZeroScale:
		default:
			t.Fatalf("n=%d shape %d: values-only mode failed where the Schur mode converged: %v", n, shape%5, err)
		}
		ev, err := EigenValues(a)
		if err != nil {
			t.Fatalf("n=%d shape %d: EigenValues: %v", n, shape%5, err)
		}
		for i := range ev {
			if math.Float64bits(real(ev[i])) != math.Float64bits(wr[i]) || math.Float64bits(imag(ev[i])) != math.Float64bits(wi[i]) {
				t.Fatalf("n=%d shape %d: EigenValues %d = %v, Schur mode %v", n, shape%5, i, ev[i], complex(wr[i], wi[i]))
			}
		}

		sch, err := SchurDecompose(a, true)
		if err != nil {
			t.Skipf("SchurDecompose: %v", err)
		}
		for i := 2; i < n; i++ {
			for j := 0; j < i-1; j++ {
				if sch.T.At(i, j) != 0 {
					t.Fatalf("n=%d shape %d: T[%d][%d] = %g below the first subdiagonal", n, shape%5, i, j, sch.T.At(i, j))
				}
			}
		}
		if rec := sch.Q.Mul(sch.T).Mul(sch.Q.T()); !rec.Equalish(a, 1e-8*(1+a.FrobNorm())) {
			t.Fatalf("n=%d shape %d: Q·T·Qᵀ does not reconstruct A", n, shape%5)
		}
	})
}
