package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, dims := range [][2]int{{5, 5}, {8, 4}, {4, 8}, {1, 1}, {6, 2}} {
		a := randCMatrix(rng, dims[0], dims[1])
		s := CSVDecompose(a)
		// Rebuild A = U·diag(S)·Vᴴ.
		k := len(s.S)
		d := NewCMatrix(k, k)
		for i, v := range s.S {
			d.Set(i, i, complex(v, 0))
		}
		rec := s.U.Mul(d).Mul(s.V.H())
		if !rec.Equalish(a, 1e-10*(1+a.FrobNorm())) {
			t.Fatalf("dims %v: reconstruction failed", dims)
		}
		// Descending order.
		for i := 1; i < k; i++ {
			if s.S[i] > s.S[i-1]+1e-14 {
				t.Fatalf("singular values not sorted: %v", s.S)
			}
		}
		// Orthonormal columns.
		utu := s.U.H().Mul(s.U)
		if !utu.Equalish(CIdentity(k), 1e-10) {
			t.Fatalf("UᴴU != I")
		}
		vtv := s.V.H().Mul(s.V)
		if !vtv.Equalish(CIdentity(k), 1e-10) {
			t.Fatalf("VᴴV != I")
		}
	}
}

func TestCSVDKnownValues(t *testing.T) {
	// diag(3, 2i): singular values 3 and 2.
	a := NewCMatrixFrom([][]complex128{{3, 0}, {0, 2i}})
	s := SingularValues(a)
	if math.Abs(s[0]-3) > 1e-12 || math.Abs(s[1]-2) > 1e-12 {
		t.Fatalf("singular values %v want [3 2]", s)
	}
	// Unitary matrix: all singular values 1.
	u := NewCMatrixFrom([][]complex128{
		{complex(1/math.Sqrt2, 0), complex(0, 1/math.Sqrt2)},
		{complex(0, 1/math.Sqrt2), complex(1/math.Sqrt2, 0)},
	})
	s = SingularValues(u)
	for _, v := range s {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("unitary singular values %v", s)
		}
	}
}

func TestCSVDRankDeficient(t *testing.T) {
	// Rank-1 outer product: exactly one nonzero singular value = ‖x‖·‖y‖.
	x := []complex128{1, 2i, -1}
	y := []complex128{2, 1 + 1i}
	a := NewCMatrix(3, 2)
	for i := range x {
		for j := range y {
			a.Set(i, j, x[i]*y[j])
		}
	}
	s := SingularValues(a)
	want := CNorm2(x) * CNorm2(y)
	if math.Abs(s[0]-want) > 1e-10 {
		t.Fatalf("rank-1 sigma %v want %v", s[0], want)
	}
	if s[1] > 1e-10 {
		t.Fatalf("second singular value should vanish: %v", s)
	}
}

func TestRealSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randMatrix(rng, 7, 4)
	s := SVDecompose(a)
	d := NewMatrix(4, 4)
	for i, v := range s.S {
		d.Set(i, i, v)
	}
	rec := s.U.Mul(d).Mul(s.V.T())
	if !rec.Equalish(a, 1e-10*(1+a.FrobNorm())) {
		t.Fatalf("real SVD reconstruction failed")
	}
}

func TestSVDPropertySpectralNormBound(t *testing.T) {
	// ‖A·x‖ ≤ σ_max·‖x‖ for all x.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randCMatrix(rng, n, n)
		smax := MaxSingularValue(a)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		ax := a.MulVec(x)
		return CNorm2(ax) <= smax*CNorm2(x)*(1+1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDFrobeniusIdentity(t *testing.T) {
	// Σσᵢ² == ‖A‖F².
	rng := rand.New(rand.NewSource(34))
	a := randCMatrix(rng, 6, 6)
	s := SingularValues(a)
	sum := 0.0
	for _, v := range s {
		sum += v * v
	}
	f2 := a.FrobNorm() * a.FrobNorm()
	if math.Abs(sum-f2) > 1e-10*f2 {
		t.Fatalf("Σσ² = %v vs ‖A‖F² = %v", sum, f2)
	}
}

func BenchmarkCSVD45(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := randCMatrix(rng, 45, 45)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CSVDecompose(a)
	}
}
