package passivity

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/rational"
)

func memoTestModel(t *testing.T, seed int64, peak float64) *rational.Model {
	t.Helper()
	m, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 20, Seed: seed, PeakGain: peak})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCrossingsMemoSharedByCheckAndCertifier: the exact check and the
// certifier's Hamiltonian stage share the cache's crossings, so the second
// of them runs no eigensolve, and its certificate is the one a fresh cache
// gives except that it reports no eigenproblem solved and why.
func TestCrossingsMemoSharedByCheckAndCertifier(t *testing.T) {
	m := memoTestModel(t, 5, 0.09)
	c := NewEvalCache()
	rep, err := Check(m, CheckOptions{Method: MethodHamiltonian, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passive || c.Eigensolves != 1 {
		t.Fatalf("exact check: passive=%v, %d eigensolves; want a passive model and 1", rep.Passive, c.Eigensolves)
	}
	opts := CheckOptions{Method: MethodAdaptive, Certify: true}
	fresh := NewEvalCache()
	opts.Cache = fresh
	want, err := Check(m.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = c
	got, err := Check(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Certificate.Stage != StageHamiltonian || !got.Certificate.Certified {
		t.Fatalf("test premise: the Hamiltonian stage must settle the certificate, got %+v", got.Certificate)
	}
	if c.Eigensolves != 1 || fresh.Eigensolves != 1 {
		t.Fatalf("certified check re-solved: %d eigensolves on the warm cache (want 1), %d on a fresh one (want 1)", c.Eigensolves, fresh.Eigensolves)
	}
	last := len(want.Certificate.Stages) - 1
	if dim := 2 * m.NumPoles() * m.Ports(); want.Certificate.EigenDim != dim || want.Certificate.Stages[last].EigenDim != dim {
		t.Fatalf("fresh certificate reports eigenproblem dim %d (stage %d), want the solved %d",
			want.Certificate.EigenDim, want.Certificate.Stages[last].EigenDim, dim)
	}
	memo := *want.Certificate
	memo.EigenDim = 0
	memo.Stages = slices.Clone(memo.Stages)
	memo.Stages[last].EigenDim, memo.Stages[last].Note = 0, memoNote
	if !reflect.DeepEqual(got.Certificate, &memo) {
		t.Fatalf("memoized certificate differs:\n%+v\nvs\n%+v", got.Certificate, &memo)
	}
}

// TestCrossingsMemoResolvesAfterEveryMutation: every path that moves the
// residues or D under a cache drops its crossings, so the next exact check
// solves again.
func TestCrossingsMemoResolvesAfterEveryMutation(t *testing.T) {
	exact := func(c *EvalCache) CheckOptions { return CheckOptions{Method: MethodHamiltonian, Cache: c} }

	t.Run("enforce perturbation", func(t *testing.T) {
		m := memoTestModel(t, 41, 0.9)
		c := NewEvalCache()
		rep, err := Enforce(m, EnforceOptions{Check: exact(c)})
		if err != nil {
			t.Fatal(err)
		}
		// One check per sweep plus the converged one, each on new residues.
		if rep.Iterations == 0 || c.Eigensolves != rep.Iterations+1 {
			t.Fatalf("%d sweeps ran %d eigensolves, want %d", rep.Iterations, c.Eigensolves, rep.Iterations+1)
		}
	})

	t.Run("ClampD", func(t *testing.T) {
		m, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 20, Seed: 8, PeakGain: 0.02, DSigma: 0.99995})
		if err != nil {
			t.Fatal(err)
		}
		c := NewEvalCache()
		if _, err := Check(m, exact(c)); err != nil {
			t.Fatal(err)
		}
		rep, err := Enforce(m, EnforceOptions{Check: exact(c), ClampD: true})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.DClamped {
			t.Fatal("test premise: D was not clamped")
		}
		if want := 1 + rep.Iterations + 1; c.Eigensolves != want {
			t.Fatalf("after the D clamp: %d eigensolves, want %d", c.Eigensolves, want)
		}
	})

	t.Run("residue scaling", func(t *testing.T) {
		m := memoTestModel(t, 43, 0.9)
		c := NewEvalCache()
		rep, err := EnforceByResidueScaling(m, EnforceOptions{Check: exact(c)})
		if err != nil {
			t.Fatal(err)
		}
		if c.Eigensolves != rep.Checks {
			t.Fatalf("%d bisection checks ran %d eigensolves", rep.Checks, c.Eigensolves)
		}
		// The model now carries the chosen scale, not the last probe's.
		if _, err := Check(m, exact(c)); err != nil {
			t.Fatal(err)
		}
		if c.Eigensolves != rep.Checks+1 {
			t.Fatal("check of the scaled model was served from the last probe's crossings")
		}
	})

	t.Run("variant swap", func(t *testing.T) {
		m := memoTestModel(t, 5, 0.09)
		v := scaledClone(m, 0.5)
		c := NewEvalCache()
		for i, next := range []*rational.Model{m, m, v, m} {
			// m, m: same variant, memo kept; v; back to m: the memo was
			// not parked.
			c.Select(next)
			if _, err := Check(next, exact(c)); err != nil {
				t.Fatal(err)
			}
			if want := []int{1, 1, 2, 3}[i]; c.Eigensolves != want {
				t.Fatalf("step %d: %d eigensolves, want %d", i, c.Eigensolves, want)
			}
		}
	})
}

// TestCrossingsMemoNeverServesStaleVerdict: a passive model whose residues
// are then scaled into violation in place (the cache notices when the next
// check binds it) is reported non-passive, like a fresh check.
func TestCrossingsMemoNeverServesStaleVerdict(t *testing.T) {
	m := memoTestModel(t, 5, 0.09)
	c := NewEvalCache()
	for _, method := range []Method{MethodHamiltonian, MethodAuto} {
		rep, err := Check(m, CheckOptions{Method: method, Cache: c, Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passive {
			t.Fatal("test premise: model must start passive")
		}
	}
	applyScale(m, 12)
	want, err := Check(m.Clone(), CheckOptions{Method: MethodHamiltonian})
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{MethodHamiltonian, MethodAuto} {
		got, err := Check(m, CheckOptions{Method: method, Cache: c, Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.Passive || want.Passive {
			t.Fatalf("method %v: scaled model reported passive (fresh check passive=%v)", method, want.Passive)
		}
		if method == MethodHamiltonian && !reflect.DeepEqual(got.Crossings, want.Crossings) {
			t.Fatalf("crossings %v, fresh check %v", got.Crossings, want.Crossings)
		}
	}
}

// TestHamiltonianSolveHonoursDeadline: an N = 600 Hamiltonian eigensolve
// under a 10 ms deadline returns ctx.Err() in a small fraction of the
// uncancelled solve time, from the exact check and from the certifier's
// Hamiltonian stage alike (which must not pass the intervals on as it does
// for a numerical failure).
func TestHamiltonianSolveHonoursDeadline(t *testing.T) {
	m, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 150, Seed: 600, PeakGain: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if n := 2 * m.NumPoles() * m.Ports(); n != 600 {
		t.Fatalf("dimension %d, want 600", n)
	}
	t0 := time.Now()
	if _, err := HamiltonianCrossings(m); err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)

	runs := map[string]func(ctx context.Context) error{
		"check": func(ctx context.Context) error {
			_, err := Check(m, CheckOptions{Method: MethodHamiltonian, Ctx: ctx})
			return err
		},
		"certifier": func(ctx context.Context) error {
			_, err := NewPipeline(HamiltonianCertifier()).Run(m, CheckOptions{Ctx: ctx})
			return err
		},
	}
	for name, run := range runs {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		t0 := time.Now()
		err := run(ctx)
		took := time.Since(t0)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
		if took > full/4 {
			t.Fatalf("%s: cancelled solve took %v, uncancelled %v", name, took, full)
		}
	}
}
