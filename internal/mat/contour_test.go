package mat

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// diagCompanion builds a block-diagonal real matrix with the given complex
// eigenvalues (conjugate pairs as 2×2 rotation-scale blocks, reals on the
// diagonal), then similarity-scrambles it with a random orthogonal-ish
// transform so the test exercises dense LU paths.
func contourTestMatrix(t *testing.T, rng *rand.Rand, eigs []complex128) *Matrix {
	t.Helper()
	n := 0
	for _, e := range eigs {
		if imag(e) != 0 {
			n += 2
		} else {
			n++
		}
	}
	m := NewMatrix(n, n)
	i := 0
	for _, e := range eigs {
		if imag(e) != 0 {
			m.Set(i, i, real(e))
			m.Set(i, i+1, imag(e))
			m.Set(i+1, i, -imag(e))
			m.Set(i+1, i+1, real(e))
			i += 2
		} else {
			m.Set(i, i, real(e))
			i++
		}
	}
	// Similarity transform with a well-conditioned random perturbation of
	// the identity: A' = T A T⁻¹ keeps the spectrum exactly.
	tm := NewMatrix(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			v := 0.1 * (rng.Float64() - 0.5)
			if r == c {
				v += 1
			}
			tm.Set(r, c, v)
		}
	}
	tInv, err := Inverse(tm)
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	return tm.Mul(m).Mul(tInv)
}

// countInRect counts how many of eigs fall strictly inside the rectangle.
func countInRect(eigs []complex128, r RectContour) int {
	n := 0
	for _, e := range eigs {
		if imag(e) != 0 {
			// the conjugate is also an eigenvalue
			for _, z := range []complex128{e, complex(real(e), -imag(e))} {
				if real(z) > r.ReLo && real(z) < r.ReHi && imag(z) > r.ImLo && imag(z) < r.ImHi {
					n++
				}
			}
		} else if real(e) > r.ReLo && real(e) < r.ReHi && 0 > r.ImLo && 0 < r.ImHi {
			n++
		}
	}
	return n
}

func TestCountRectKnownSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eigs := []complex128{
		complex(-1, 3), complex(-0.5, 7), complex(0.2, 5), complex(-2, 0), complex(1.5, 0),
	}
	m := contourTestMatrix(t, rng, eigs)
	ev := NewContourEvaluator(m)
	cases := []RectContour{
		{ReLo: -4, ReHi: 4, ImLo: -10, ImHi: 10}, // everything
		{ReLo: -4, ReHi: 0, ImLo: 1, ImHi: 10},   // upper-left cluster
		{ReLo: 0, ReHi: 4, ImLo: 1, ImHi: 10},    // upper-right single
		{ReLo: -4, ReHi: 4, ImLo: -0.5, ImHi: 0.5},
		{ReLo: 2, ReHi: 3, ImLo: 2, ImHi: 3}, // empty
	}
	for _, rc := range cases {
		want := countInRect(eigs, rc)
		got, err := ev.CountRect(nil, rc, ContourOptions{})
		if err != nil {
			t.Fatalf("CountRect(%+v): %v", rc, err)
		}
		if got != want {
			t.Errorf("CountRect(%+v) = %d, want %d", rc, got, want)
		}
	}
	if ev.Nodes == 0 {
		t.Error("evaluator did not record any nodes")
	}
}

func TestCountRectRandomVsDenseEig(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(5)
		m := NewMatrix(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				m.Set(r, c, 2*(rng.Float64()-0.5))
			}
		}
		eigs, err := EigenValues(m)
		if err != nil {
			continue
		}
		ev := NewContourEvaluator(m)
		bound := ev.EigenBound()
		// Rectangle edges at random, kept clear of eigenvalues.
		for rect := 0; rect < 3; rect++ {
			rc := RectContour{
				ReLo: -bound * rng.Float64(), ReHi: bound * rng.Float64(),
				ImLo: -bound * rng.Float64(), ImHi: bound * rng.Float64(),
			}
			if rc.ReHi-rc.ReLo < 1e-3 || rc.ImHi-rc.ImLo < 1e-3 {
				continue
			}
			if tooClose(eigs, rc, 1e-6*bound) {
				continue
			}
			want := 0
			for _, e := range eigs {
				if real(e) > rc.ReLo && real(e) < rc.ReHi && imag(e) > rc.ImLo && imag(e) < rc.ImHi {
					want++
				}
			}
			got, err := ev.CountRect(nil, rc, ContourOptions{})
			if err != nil {
				// A stall on an adversarial random rectangle is allowed —
				// the production caller perturbs and retries — but a wrong
				// count is not.
				continue
			}
			if got != want {
				t.Fatalf("trial %d rect %+v: count %d, want %d (eigs %v)", trial, rc, got, want, eigs)
			}
		}
	}
}

// tooClose reports whether any eigenvalue sits within eps of the
// rectangle's boundary lines (where the quadrature may legitimately stall).
func tooClose(eigs []complex128, r RectContour, eps float64) bool {
	for _, e := range eigs {
		re, im := real(e), imag(e)
		onX := im >= r.ImLo-eps && im <= r.ImHi+eps
		onY := re >= r.ReLo-eps && re <= r.ReHi+eps
		if onX && (math.Abs(re-r.ReLo) < eps || math.Abs(re-r.ReHi) < eps) {
			return true
		}
		if onY && (math.Abs(im-r.ImLo) < eps || math.Abs(im-r.ImHi) < eps) {
			return true
		}
	}
	return false
}

func TestCountRectDegenerate(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, -1) // eigenvalues ±i
	ev := NewContourEvaluator(m)
	if _, err := ev.CountRect(nil, RectContour{ReLo: 1, ReHi: 1, ImLo: 0, ImHi: 1}, ContourOptions{}); err == nil {
		t.Error("empty rectangle accepted")
	}
	got, err := ev.CountRect(nil, RectContour{ReLo: -0.5, ReHi: 0.5, ImLo: 0.5, ImHi: 1.5}, ContourOptions{})
	if err != nil || got != 1 {
		t.Errorf("count around +i = %d, %v; want 1, nil", got, err)
	}
	if b := ev.EigenBound(); b < 1 || b > 1+1e-12 {
		t.Errorf("EigenBound = %g, want 1", b)
	}
}

// cancellingBackend cancels a context during its at-th determinant.
type cancellingBackend struct {
	DetBackend
	calls, at int
	cancel    context.CancelFunc
}

func (b *cancellingBackend) DetPhasePivot(z complex128) (float64, float64, error) {
	b.calls++
	if b.calls == b.at {
		b.cancel()
	}
	return b.DetBackend.DetPhasePivot(z)
}

// TestCountRectHonoursContext: a cancelled context stops one rectangle
// count with ctx.Err() within one batch of nodes, counted exactly through
// a backend that cancels during a chosen determinant.
func TestCountRectHonoursContext(t *testing.T) {
	m := randMatrix(rand.New(rand.NewSource(3)), 24, 24)
	rect := RectContour{ReLo: -6, ReHi: 6, ImLo: -6, ImHi: 6}
	ref := NewContourEvaluator(m)
	if _, err := ref.CountRect(nil, rect, ContourOptions{}); err != nil {
		t.Fatal(err)
	}
	if ref.Nodes < 4*contourCtxBatch {
		t.Fatalf("uncancelled count takes %d nodes, too few to test batches of %d", ref.Nodes, contourCtxBatch)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev := NewContourEvaluator(m)
	if _, err := ev.CountRect(ctx, rect, ContourOptions{}); !errors.Is(err, context.Canceled) || ev.Nodes != 0 {
		t.Fatalf("cancelled before the count: err = %v after %d nodes, want context.Canceled after 0", err, ev.Nodes)
	}
	for _, at := range []int{1, contourCtxBatch, contourCtxBatch + 1, ref.Nodes / 2, ref.Nodes - contourCtxBatch - 1} {
		ctx, cancel := context.WithCancel(context.Background())
		ev := NewContourEvaluatorBackend(&cancellingBackend{DetBackend: NewDenseShifted(m), at: at, cancel: cancel})
		_, err := ev.CountRect(ctx, rect, ContourOptions{})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at node %d: err = %v, want context.Canceled", at, err)
		}
		if ev.Nodes > at+contourCtxBatch {
			t.Fatalf("cancelled at node %d: %d nodes spent, want at most one batch (%d) more", at, ev.Nodes, contourCtxBatch)
		}
	}
}
