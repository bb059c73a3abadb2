package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// companionMatrix builds the companion matrix of the monic polynomial with
// the given coefficients: p(x) = xⁿ + c[n-1]x^{n-1} + … + c[0].
func companionMatrix(c []float64) *Matrix {
	n := len(c)
	m := NewMatrix(n, n)
	for i := 1; i < n; i++ {
		m.Set(i, i-1, 1)
	}
	for i := 0; i < n; i++ {
		m.Set(i, n-1, -c[i])
	}
	return m
}

func sortComplex(v []complex128) {
	sort.Slice(v, func(a, b int) bool {
		if real(v[a]) != real(v[b]) {
			return real(v[a]) < real(v[b])
		}
		return imag(v[a]) < imag(v[b])
	})
}

func TestEigenValuesDiagonal(t *testing.T) {
	a := NewMatrixFrom([][]float64{{3, 0, 0}, {0, -1, 0}, {0, 0, 7}})
	ev, err := EigenValues(a)
	if err != nil {
		t.Fatal(err)
	}
	sortComplex(ev)
	want := []complex128{-1, 3, 7}
	for i := range want {
		if cAbs(ev[i]-want[i]) > 1e-10 {
			t.Fatalf("eig %v want %v", ev, want)
		}
	}
}

func TestEigenValuesRotation(t *testing.T) {
	// 2D rotation by θ has eigenvalues e^{±iθ}.
	theta := 0.7
	a := NewMatrixFrom([][]float64{
		{math.Cos(theta), -math.Sin(theta)},
		{math.Sin(theta), math.Cos(theta)},
	})
	ev, err := EigenValues(a)
	if err != nil {
		t.Fatal(err)
	}
	sortComplex(ev)
	want := []complex128{complex(math.Cos(theta), -math.Sin(theta)), complex(math.Cos(theta), math.Sin(theta))}
	for i := range want {
		if cAbs(ev[i]-want[i]) > 1e-10 {
			t.Fatalf("eig %v want %v", ev, want)
		}
	}
}

func TestEigenValuesCompanionKnownRoots(t *testing.T) {
	// p(x) = (x−1)(x−2)(x−3)(x+0.5) expanded:
	// x⁴ −5.5x³ + 8x² −2.5x −3  ⇒ coefficients [c0..c3] = [-3, -2.5, 8, -5.5]... recompute:
	// (x−1)(x−2) = x²−3x+2; (x−3)(x+0.5) = x²−2.5x−1.5
	// product: x⁴ −2.5x³ −1.5x² −3x³ +7.5x² +4.5x +2x² −5x −3
	//        = x⁴ −5.5x³ + 8x² −0.5x −3
	c := []float64{-3, -0.5, 8, -5.5}
	a := companionMatrix(c)
	ev, err := EigenValues(a)
	if err != nil {
		t.Fatal(err)
	}
	sortComplex(ev)
	want := []complex128{-0.5, 1, 2, 3}
	for i := range want {
		if cAbs(ev[i]-want[i]) > 1e-8 {
			t.Fatalf("companion eig %v want %v", ev, want)
		}
	}
}

func TestEigenValuesComplexConjugatePairs(t *testing.T) {
	// Block diag with blocks [[α, β],[−β, α]] has eigenvalues α±iβ.
	a := NewMatrix(4, 4)
	a.Set(0, 0, -1)
	a.Set(0, 1, 5)
	a.Set(1, 0, -5)
	a.Set(1, 1, -1)
	a.Set(2, 2, -2)
	a.Set(2, 3, 10)
	a.Set(3, 2, -10)
	a.Set(3, 3, -2)
	ev, err := EigenValues(a)
	if err != nil {
		t.Fatal(err)
	}
	sortComplex(ev)
	want := []complex128{complex(-2, -10), complex(-2, 10), complex(-1, -5), complex(-1, 5)}
	for i := range want {
		if cAbs(ev[i]-want[i]) > 1e-9 {
			t.Fatalf("eig %v want %v", ev, want)
		}
	}
}

func TestEigenValuesAgainstSymJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	n := 12
	a := randSPD(rng, n)
	evGeneral, err := EigenValues(a)
	if err != nil {
		t.Fatal(err)
	}
	se := SymEigDecompose(a)
	gen := make([]float64, n)
	for i, z := range evGeneral {
		if math.Abs(imag(z)) > 1e-8 {
			t.Fatalf("symmetric matrix produced complex eigenvalue %v", z)
		}
		gen[i] = real(z)
	}
	sort.Float64s(gen)
	for i := range gen {
		if math.Abs(gen[i]-se.Values[i]) > 1e-7*(1+math.Abs(se.Values[i])) {
			t.Fatalf("eig mismatch: francis %v vs jacobi %v", gen, se.Values)
		}
	}
}

func TestSchurReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 3, 5, 10, 17} {
		a := randMatrix(rng, n, n)
		sch, err := SchurDecompose(a, true)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// A == Q·T·Qᵀ
		rec := sch.Q.Mul(sch.T).Mul(sch.Q.T())
		if !rec.Equalish(a, 1e-8*(1+a.FrobNorm())) {
			t.Fatalf("n=%d: Schur reconstruction failed", n)
		}
		// Q orthogonal.
		if !sch.Q.T().Mul(sch.Q).Equalish(Identity(n), 1e-10) {
			t.Fatalf("n=%d: Q not orthogonal", n)
		}
		// T quasi-upper-triangular.
		if !IsQuasiUpperTriangular(sch.T, 1e-8*(1+a.FrobNorm())) {
			t.Fatalf("n=%d: T not quasi-triangular:\n%v", n, sch.T)
		}
	}
}

func TestSchur2x2BlocksAreComplexPairs(t *testing.T) {
	// Any remaining 2×2 diagonal block must have complex eigenvalues
	// (real pairs are rotated to triangular form).
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		a := randMatrix(rng, n, n)
		sch, err := SchurDecompose(a, false)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-9 * (1 + sch.T.MaxAbs())
		for _, blk := range schurBlocks(sch.T, tol) {
			if blk[1] == 2 {
				i := blk[0]
				p := (sch.T.At(i, i) - sch.T.At(i+1, i+1)) / 2
				disc := p*p + sch.T.At(i+1, i)*sch.T.At(i, i+1)
				if disc >= 0 {
					t.Fatalf("2×2 block with real eigenvalues left in T (disc=%v)", disc)
				}
			}
		}
	}
}

func TestEigenValuesTraceDetInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		a := randMatrix(rng, n, n)
		ev, err := EigenValues(a)
		if err != nil {
			t.Fatal(err)
		}
		var sum complex128
		prod := complex(1, 0)
		for _, z := range ev {
			sum += z
			prod *= z
		}
		if math.Abs(real(sum)-a.Trace()) > 1e-8*(1+math.Abs(a.Trace())) || math.Abs(imag(sum)) > 1e-8 {
			t.Fatalf("Σλ = %v vs trace %v", sum, a.Trace())
		}
		f, err := LUFactor(a)
		if err != nil {
			continue
		}
		det := f.Det()
		if cAbs(prod-complex(det, 0)) > 1e-6*(1+math.Abs(det)) {
			t.Fatalf("Πλ = %v vs det %v", prod, det)
		}
	}
}

func TestSymEigDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n := 10
	a := randSPD(rng, n)
	se := SymEigDecompose(a)
	// A·V == V·diag(λ)
	av := a.Mul(se.V)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			want := se.V.At(i, j) * se.Values[j]
			if math.Abs(av.At(i, j)-want) > 1e-8*(1+math.Abs(want)) {
				t.Fatalf("eigpair %d fails", j)
			}
		}
	}
	// SPD ⇒ all eigenvalues > 0.
	for _, v := range se.Values {
		if v <= 0 {
			t.Fatalf("SPD matrix has eigenvalue %v", v)
		}
	}
	// V orthogonal.
	if !se.V.T().Mul(se.V).Equalish(Identity(n), 1e-10) {
		t.Fatalf("V not orthogonal")
	}
}

func TestBalancePreservesEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := randMatrix(rng, 6, 6)
	// Badly scale it.
	for j := 0; j < 6; j++ {
		scale := math.Pow(10, float64(j-3))
		for i := 0; i < 6; i++ {
			a.Set(i, j, a.At(i, j)*scale)
			a.Set(j, i, a.At(j, i)/scale)
		}
	}
	evA, err := EigenValues(a)
	if err != nil {
		t.Fatal(err)
	}
	w := a.Clone()
	Balance(w)
	evW, err := EigenValues(w)
	if err != nil {
		t.Fatal(err)
	}
	sortComplex(evA)
	sortComplex(evW)
	for i := range evA {
		if cAbs(evA[i]-evW[i]) > 1e-6*(1+cAbs(evA[i])) {
			t.Fatalf("balance changed eigenvalues: %v vs %v", evA, evW)
		}
	}
}

func BenchmarkEigenValues100(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	a := randMatrix(rng, 100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EigenValues(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchur50WithQ(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := randMatrix(rng, 50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SchurDecompose(a, true); err != nil {
			b.Fatal(err)
		}
	}
}
