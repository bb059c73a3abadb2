package qp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func randSPD(rng *rand.Rand, n int) *mat.Matrix {
	b := mat.NewMatrix(n+2, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	p := b.T().Mul(b)
	for i := 0; i < n; i++ {
		p.Set(i, i, p.At(i, i)+0.5)
	}
	return p
}

func TestUnconstrainedOptimumWhenFeasible(t *testing.T) {
	// If g ≥ 0 the unconstrained minimizer x=0 is feasible, so x*=0, λ*=0.
	rng := rand.New(rand.NewSource(70))
	h := randSPD(rng, 5)
	f := mat.NewMatrix(3, 5)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	g := []float64{1, 2, 0.5}
	res, err := SolveDense(h, f, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range res.X {
		if math.Abs(x) > 1e-10 {
			t.Fatalf("x should be 0, got %v", res.X)
		}
	}
}

func TestSingleActiveConstraintClosedForm(t *testing.T) {
	// min ½‖x‖² s.t. aᵀx ≤ g with g<0 has solution x = a·g/‖a‖².
	h := mat.Identity(3)
	f := mat.NewMatrixFrom([][]float64{{1, 2, -1}})
	g := []float64{-2.0}
	res, err := SolveDense(h, f, g)
	if err != nil {
		t.Fatal(err)
	}
	norm2 := 1.0 + 4 + 1
	want := []float64{1 * -2 / norm2, 2 * -2 / norm2, -1 * -2 / norm2}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-10 {
			t.Fatalf("x = %v want %v", res.X, want)
		}
	}
}

func TestTwoConstraints(t *testing.T) {
	// min ½(x²+y²) s.t. −x ≤ −1, −y ≤ −2  ⇒ x=1, y=2 (both active).
	h := mat.Identity(2)
	f := mat.NewMatrixFrom([][]float64{{-1, 0}, {0, -1}})
	g := []float64{-1, -2}
	res, err := SolveDense(h, f, g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-10 || math.Abs(res.X[1]-2) > 1e-10 {
		t.Fatalf("x = %v want [1 2]", res.X)
	}
	// Both multipliers positive.
	if res.Lambda[0] <= 0 || res.Lambda[1] <= 0 {
		t.Fatalf("λ = %v, both should be active", res.Lambda)
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Duplicate rows must not break the solver (singular dual matrix).
	h := mat.Identity(2)
	f := mat.NewMatrixFrom([][]float64{{-1, 0}, {-1, 0}, {-1, 0}})
	g := []float64{-1, -1, -1}
	res, err := SolveDense(h, f, g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-8 || math.Abs(res.X[1]) > 1e-8 {
		t.Fatalf("x = %v want [1 0]", res.X)
	}
}

// checkKKT verifies stationarity, primal/dual feasibility and complementary
// slackness of a solution.
func checkKKT(t *testing.T, h, f *mat.Matrix, g []float64, res *Result, tol float64) {
	t.Helper()
	// Stationarity: Hx + Fᵀλ = 0.
	hx := h.MulVec(res.X)
	ftl := f.MulVecT(res.Lambda)
	for i := range hx {
		if math.Abs(hx[i]+ftl[i]) > tol {
			t.Fatalf("stationarity violated at %d: %v", i, hx[i]+ftl[i])
		}
	}
	fx := f.MulVec(res.X)
	for i := range g {
		// Primal feasibility.
		if fx[i] > g[i]+tol {
			t.Fatalf("primal infeasible row %d: %v > %v", i, fx[i], g[i])
		}
		// Dual feasibility.
		if res.Lambda[i] < -tol {
			t.Fatalf("negative multiplier %v", res.Lambda[i])
		}
		// Complementary slackness.
		if res.Lambda[i]*(g[i]-fx[i]) > tol*10 {
			t.Fatalf("complementary slackness violated row %d: λ=%v slack=%v", i, res.Lambda[i], g[i]-fx[i])
		}
	}
}

func TestKKTRandomProblems(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(6)
		h := randSPD(rng, n)
		fm := mat.NewMatrix(m, n)
		for i := range fm.Data {
			fm.Data[i] = rng.NormFloat64()
		}
		// Guarantee feasibility: pick a point x0 and give every row
		// nonnegative slack around it, so x0 is always feasible. Rows with
		// zero slack tend to be active at the optimum.
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		fx0 := fm.MulVec(x0)
		g := make([]float64, m)
		for i := range g {
			slack := 0.0
			if rng.Intn(2) == 0 {
				slack = math.Abs(rng.NormFloat64())
			}
			g[i] = fx0[i] + slack
		}
		res, err := SolveDense(h, fm, g)
		if err != nil {
			return false
		}
		// Inline KKT check (quick.Check can't call t.Fatalf helpers).
		hx := h.MulVec(res.X)
		ftl := fm.MulVecT(res.Lambda)
		scale := 1.0 + mat.Norm2(g)
		for i := range hx {
			if math.Abs(hx[i]+ftl[i]) > 1e-6*scale {
				return false
			}
		}
		fx := fm.MulVec(res.X)
		for i := range g {
			if fx[i] > g[i]+1e-6*scale || res.Lambda[i] < -1e-9 {
				return false
			}
			if res.Lambda[i]*(g[i]-fx[i]) > 1e-5*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectiveNotWorseThanVertices(t *testing.T) {
	// Compare against brute force over all active-set combinations for a
	// small problem: the QP solution must achieve the minimum objective
	// among all KKT candidates.
	rng := rand.New(rand.NewSource(71))
	h := randSPD(rng, 3)
	f := mat.NewMatrix(3, 3)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	g := []float64{-1, -0.5, 2}
	res, err := SolveDense(h, f, g)
	if err != nil {
		t.Fatal(err)
	}
	checkKKT(t, h, f, g, res, 1e-8)
	obj := func(x []float64) float64 {
		hx := h.MulVec(x)
		return 0.5 * mat.Dot(x, hx)
	}
	feasible := func(x []float64) bool {
		fx := f.MulVec(x)
		for i := range g {
			if fx[i] > g[i]+1e-9 {
				return false
			}
		}
		return true
	}
	best := obj(res.X)
	// Enumerate all subsets of constraints as equalities, solve the KKT
	// system, and keep feasible candidates.
	for mask := 0; mask < 8; mask++ {
		var rows []int
		for i := 0; i < 3; i++ {
			if mask&(1<<i) != 0 {
				rows = append(rows, i)
			}
		}
		k := len(rows)
		// Solve [H Aᵀ; A 0][x;ν] = [0; g_A]
		kkt := mat.NewMatrix(3+k, 3+k)
		kkt.SetSlice(0, 0, h)
		for a, r := range rows {
			for j := 0; j < 3; j++ {
				kkt.Set(3+a, j, f.At(r, j))
				kkt.Set(j, 3+a, f.At(r, j))
			}
		}
		rhs := make([]float64, 3+k)
		for a, r := range rows {
			rhs[3+a] = g[r]
		}
		sol, err := mat.SolveLin(kkt, rhs)
		if err != nil {
			continue
		}
		x := sol[:3]
		if feasible(x) && obj(x) < best-1e-9 {
			t.Fatalf("found better feasible point: obj %v < %v (mask %b)", obj(x), best, mask)
		}
	}
}

func TestNNQPDirect(t *testing.T) {
	// min ½λᵀMλ + qᵀλ, λ≥0 with M = I, q = (−1, 2): λ* = (1, 0).
	m := mat.Identity(2)
	q := []float64{-1, 2}
	lam, err := SolveNNQP(context.Background(), m, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lam[0]-1) > 1e-10 || lam[1] != 0 {
		t.Fatalf("λ = %v want [1 0]", lam)
	}
}

// dualCase draws a seeded dual problem: M = BᵀB with B of random rank
// deficiency and a Gaussian q.
func dualCase(seed int64) (*mat.Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(12)
	b := mat.NewMatrix(1+rng.Intn(n), n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	q := make([]float64, n)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return b.T().Mul(b), q
}

// TestSolveNNQPContext checks that a cancelled ctx stops the solve with
// ctx.Err() itself, and that an uncancelled solve is bit for bit the solver
// before it took a ctx: the FNV-1a hash of every λ bit pattern over 64
// seeded duals was recorded from that solver.
func TestSolveNNQPContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, q := dualCase(1)
	if lam, err := SolveNNQP(ctx, m, q); !errors.Is(err, context.Canceled) || lam != nil {
		t.Fatalf("cancelled solve: λ=%v err=%v, want nil and context.Canceled", lam, err)
	}

	h := fnv.New64a()
	var buf [8]byte
	for seed := int64(1); seed <= 64; seed++ {
		m, q := dualCase(seed)
		lam, err := SolveNNQP(context.Background(), m, q)
		if err != nil {
			fmt.Fprintf(h, "err %v;", err)
			continue
		}
		for _, v := range lam {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if got, want := h.Sum64(), uint64(0xb54f56a872959b3b); got != want {
		t.Fatalf("λ hash %#x, want %#x: the uncancelled solve changed", got, want)
	}
}

func BenchmarkSolveDense50x200(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	h := randSPD(rng, 200)
	f := mat.NewMatrix(50, 200)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	g := make([]float64, 50)
	for i := range g {
		g[i] = rng.NormFloat64() - 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveDense(h, f, g); err != nil {
			b.Fatal(err)
		}
	}
}

func TestInfeasibleDetected(t *testing.T) {
	// x ≤ −1 and −x ≤ −1 (i.e. x ≥ 1) cannot both hold.
	h := mat.Identity(1)
	f := mat.NewMatrixFrom([][]float64{{1}, {-1}})
	g := []float64{-1, -1}
	if _, err := SolveDense(h, f, g); err == nil {
		t.Fatalf("expected ErrInfeasible")
	}
}

// Result holds the solution of a dense QP solve.
type Result struct {
	X      []float64 // primal minimizer
	Lambda []float64 // dual multipliers (one per constraint row)
}

// SolveDense solves min ½xᵀHx s.t. Fx ≤ g for dense H (SPD) and F. This is
// the generic path used by tests and small problems; the passivity
// enforcement fast path assembles the dual matrix directly instead.
func SolveDense(h, f *mat.Matrix, g []float64) (*Result, error) {
	nvar := h.Rows
	if h.Cols != nvar || f.Cols != nvar || len(g) != f.Rows {
		panic("qp: SolveDense dimension mismatch")
	}
	chol, _, err := mat.CholFactorRegularized(h)
	if err != nil {
		return nil, fmt.Errorf("qp: H not positive definite: %w", err)
	}
	// W = H⁻¹Fᵀ, M = F·W.
	w := chol.Solve(f.T())
	m := f.Mul(w)
	m.Symmetrize()
	lambda, err := SolveNNQP(context.Background(), m, g)
	if err != nil {
		return nil, err
	}
	// x = −H⁻¹Fᵀλ = −W·λ.
	x := make([]float64, nvar)
	for i := 0; i < nvar; i++ {
		s := 0.0
		for j := 0; j < f.Rows; j++ {
			s += w.At(i, j) * lambda[j]
		}
		x[i] = -s
	}
	// Verify primal feasibility: a solution that badly violates the
	// constraints signals an infeasible problem that slipped past the
	// multiplier guard.
	scale := 1 + mat.Norm2(g) + mat.Norm2(x)*(1+f.MaxAbs())
	fx := f.MulVec(x)
	for i := range g {
		if fx[i] > g[i]+1e-6*scale {
			return nil, ErrInfeasible
		}
	}
	return &Result{X: x, Lambda: lambda}, nil
}
