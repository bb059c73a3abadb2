package statespace

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func randStableSystem(rng *rand.Rand, n, m, p int) *System {
	a := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	shift := a.FrobNorm() + 0.5
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)-shift)
	}
	b := mat.NewMatrix(n, m)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	c := mat.NewMatrix(p, n)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	d := mat.NewMatrix(p, m)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return MustNew(a, b, c, d)
}

func TestEvalFirstOrderSystem(t *testing.T) {
	// H(s) = 1/(s+2) + 0.5
	a := mat.NewMatrixFrom([][]float64{{-2}})
	b := mat.NewMatrixFrom([][]float64{{1}})
	c := mat.NewMatrixFrom([][]float64{{1}})
	d := mat.NewMatrixFrom([][]float64{{0.5}})
	sys := MustNew(a, b, c, d)
	for _, omega := range []float64{0, 1, 10} {
		h, err := sys.Eval(omega)
		if err != nil {
			t.Fatal(err)
		}
		want := 1/(complex(0, omega)+2) + 0.5
		if cmplx.Abs(h.At(0, 0)-want) > 1e-14 {
			t.Fatalf("ω=%v: %v want %v", omega, h.At(0, 0), want)
		}
	}
}

func TestSeriesTransferProduct(t *testing.T) {
	// Transfer of Series(G,H) equals G(jω)·H(jω) pointwise.
	rng := rand.New(rand.NewSource(60))
	g := randStableSystem(rng, 4, 2, 3)
	h := randStableSystem(rng, 3, 1, 2)
	gh, err := Series(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if gh.Order() != 7 || gh.Inputs() != 1 || gh.Outputs() != 3 {
		t.Fatalf("series dims wrong: n=%d m=%d p=%d", gh.Order(), gh.Inputs(), gh.Outputs())
	}
	for _, omega := range []float64{0, 0.7, 4, 25} {
		hg, err := g.Eval(omega)
		if err != nil {
			t.Fatal(err)
		}
		hh, err := h.Eval(omega)
		if err != nil {
			t.Fatal(err)
		}
		want := hg.Mul(hh)
		got, err := gh.Eval(omega)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equalish(want, 1e-9*(1+want.MaxAbs())) {
			t.Fatalf("series transfer mismatch at ω=%v", omega)
		}
	}
}

func TestSeriesDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := randStableSystem(rng, 2, 2, 2)
	h := randStableSystem(rng, 2, 2, 3) // 3 outputs vs 2 inputs
	if _, err := Series(g, h); err == nil {
		t.Fatalf("expected dimension error")
	}
}

func TestSeriesPreservesQuasiTriangular(t *testing.T) {
	// Block-diagonal A_G and A_H compose into a quasi-triangular A.
	ag := mat.NewMatrixFrom([][]float64{{-1, 3}, {-3, -1}})
	g := MustNew(ag, mat.NewMatrixFrom([][]float64{{2}, {0}}),
		mat.NewMatrixFrom([][]float64{{1, 0}}), mat.NewMatrixFrom([][]float64{{0}}))
	ah := mat.NewMatrixFrom([][]float64{{-5}})
	h := MustNew(ah, mat.NewMatrixFrom([][]float64{{1}}),
		mat.NewMatrixFrom([][]float64{{1}}), mat.NewMatrixFrom([][]float64{{0.3}}))
	gh, err := Series(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.IsQuasiUpperTriangular(gh.A, 1e-14) {
		t.Fatalf("series A should remain quasi-triangular:\n%v", gh.A)
	}
}

func TestGramianResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	sys := randStableSystem(rng, 6, 2, 2)
	p, err := sys.Gramian()
	if err != nil {
		t.Fatal(err)
	}
	r := sys.A.Mul(p).Add(p.Mul(sys.A.T())).Add(sys.B.Mul(sys.B.T()))
	if r.MaxAbs() > 1e-8*(1+p.MaxAbs()*sys.A.MaxAbs()) {
		t.Fatalf("gramian residual %v", r.MaxAbs())
	}
}

func TestGramianL2NormIdentity(t *testing.T) {
	// For H(s)=c(sI−A)⁻¹b: ‖H‖₂² = c·P·cᵀ. For H(s)=1/(s+a):
	// ‖H‖₂² = (1/2π)∫|H|²dω = 1/(2a).
	a := mat.NewMatrixFrom([][]float64{{-2}})
	b := mat.NewMatrixFrom([][]float64{{1}})
	c := mat.NewMatrixFrom([][]float64{{1}})
	d := mat.NewMatrix(1, 1)
	sys := MustNew(a, b, c, d)
	p, err := sys.Gramian()
	if err != nil {
		t.Fatal(err)
	}
	got := p.At(0, 0) // c·P·cᵀ with c=1
	want := 1.0 / 4.0 // 1/(2·2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("L2 identity: got %v want %v", got, want)
	}
}

func TestIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	sys := randStableSystem(rng, 5, 1, 1)
	ok, err := sys.IsStable(0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("shifted random system should be stable")
	}
	sys.A.Set(0, 0, 1)
	sys.A.Set(0, 1, 0)
	ok, err = sys.IsStable(0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("unstable system not detected")
	}
}

func TestNewValidation(t *testing.T) {
	a := mat.NewMatrix(2, 3)
	if _, err := New(a, mat.NewMatrix(2, 1), mat.NewMatrix(1, 2), mat.NewMatrix(1, 1)); err == nil {
		t.Fatalf("non-square A accepted")
	}
	a = mat.NewMatrix(2, 2)
	if _, err := New(a, mat.NewMatrix(3, 1), mat.NewMatrix(1, 2), mat.NewMatrix(1, 1)); err == nil {
		t.Fatalf("bad B accepted")
	}
	if _, err := New(a, mat.NewMatrix(2, 1), mat.NewMatrix(1, 3), mat.NewMatrix(1, 1)); err == nil {
		t.Fatalf("bad C accepted")
	}
	if _, err := New(a, mat.NewMatrix(2, 1), mat.NewMatrix(1, 2), mat.NewMatrix(2, 2)); err == nil {
		t.Fatalf("bad D accepted")
	}
}

// Clone deep-copies the system.
func (s *System) Clone() *System {
	return &System{A: s.A.Clone(), B: s.B.Clone(), C: s.C.Clone(), D: s.D.Clone()}
}
