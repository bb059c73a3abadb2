package passivity

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/rational"
)

// counterModelJSON is the golden-fixture encoding of a rational model:
// complex numbers as [re, im] pairs, residue matrices flattened row-major.
type counterModelJSON struct {
	Poles    [][2]float64   `json:"poles"`
	Residues [][][2]float64 `json:"residues"`
	D        [][]float64    `json:"d"`
}

// loadModelFixture reads a rational model from a testdata JSON file.
func loadModelFixture(t *testing.T, path string) *rational.Model {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	var mj counterModelJSON
	if err := json.Unmarshal(b, &mj); err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	poles := make([]complex128, len(mj.Poles))
	for i, p := range mj.Poles {
		poles[i] = complex(p[0], p[1])
	}
	ports := len(mj.D)
	residues := make([]*mat.CMatrix, len(mj.Residues))
	for k, flat := range mj.Residues {
		r := mat.NewCMatrix(ports, ports)
		for i := 0; i < ports; i++ {
			for j := 0; j < ports; j++ {
				v := flat[i*ports+j]
				r.Set(i, j, complex(v[0], v[1]))
			}
		}
		residues[k] = r
	}
	d := mat.NewMatrix(ports, ports)
	for i, row := range mj.D {
		for j, v := range row {
			d.Set(i, j, v)
		}
	}
	m, err := rational.New(poles, residues, d)
	if err != nil {
		t.Fatalf("fixture model invalid: %v", err)
	}
	return m
}

// levelEigs returns all eigenvalues of the model's level-γ Hamiltonian via
// the dense solver — the oracle the counter is validated against.
func levelEigs(t *testing.T, model *rational.Model, gamma float64) []complex128 {
	t.Helper()
	sys := model.Realization()
	h, err := HamiltonianMatrixLevel(sys.A, sys.B, sys.C, sys.D, gamma)
	if err != nil {
		t.Fatalf("HamiltonianMatrixLevel: %v", err)
	}
	eigs, err := mat.EigenValues(h)
	if err != nil {
		t.Fatalf("EigenValues: %v", err)
	}
	return eigs
}

// rectCount counts eigenvalues strictly inside the rectangle the counter
// actually walked for segment (lo, hi): half-width delta as reported by
// LastDelta, bottom edge dipped below the axis for DC segments (mirroring
// IntervalCounter.Count).
func rectCount(eigs []complex128, lo, hi, delta float64) int {
	imLo := lo
	if lo == 0 {
		imLo = -delta
	}
	n := 0
	for _, z := range eigs {
		if real(z) > -delta && real(z) < delta && imag(z) > imLo && imag(z) < hi {
			n++
		}
	}
	return n
}

// ambiguous reports whether some eigenvalue sits too close to the counted
// rectangle's boundary for the dense-oracle comparison to be well-posed
// (strictly-inside versus on-the-contour is then a coin flip between the
// two solvers' rounding).
func ambiguous(eigs []complex128, lo, hi, delta float64) bool {
	imLo := lo
	if lo == 0 {
		imLo = -delta
	}
	margin := 1e-6 * (math.Abs(hi) + delta)
	for _, z := range eigs {
		re, im := math.Abs(real(z)), imag(z)
		inBand := im > imLo-margin && im < hi+margin
		if inBand && math.Abs(re-delta) < margin {
			return true
		}
		if re < delta+margin && (math.Abs(im-imLo) < margin || math.Abs(im-hi) < margin) {
			return true
		}
	}
	return false
}

// NewIntervalCounterDense builds the counter over the materialized
// Hamiltonian and the dense complex-LU determinant kernel — O(N³) per
// contour node. It is the oracle the structured kernel behind
// NewIntervalCounter is cross-validated against.
func NewIntervalCounterDense(model *rational.Model, gamma float64) (*IntervalCounter, error) {
	sys := model.Realization()
	h, err := HamiltonianMatrixLevel(sys.A, sys.B, sys.C, sys.D, gamma)
	if err != nil {
		return nil, err
	}
	return newIntervalCounter(mat.NewContourEvaluator(h), gamma), nil
}

// TestCounterOracle cross-validates IntervalCounter (structured backend)
// against the dense Hamiltonian eigensolve on ≥100 random synthetic models,
// passive and non-passive: for every interval of a crossing-separated
// partition the counter must report exactly the eigenvalues the dense
// solver places in its rectangle, a zero count must imply zero on-axis
// crossings, and on a sampled subset the dense-LU counter backend must
// return the identical integer over the identical rectangle.
func TestCounterOracle(t *testing.T) {
	const gamma = 1 + 1e-9
	models, intervals, skipped, crossChecked := 0, 0, 0, 0
	for seed := int64(0); seed < 160; seed++ {
		peak := 0.12 // passive: one crossing-free interval
		if seed%2 == 0 {
			peak = 0.45 // violating: several crossing-separated intervals
		}
		model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 8, Seed: 7000 + seed, PeakGain: peak})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		eigs := levelEigs(t, model, gamma)
		ic, err := NewIntervalCounter(model, gamma)
		if err != nil {
			t.Fatalf("seed %d: NewIntervalCounter: %v", seed, err)
		}
		var icd *IntervalCounter
		if seed%8 == 0 { // dense cross-check on a sampled subset (O(N³)/node)
			if icd, err = NewIntervalCounterDense(model, gamma); err != nil {
				t.Fatalf("seed %d: NewIntervalCounterDense: %v", seed, err)
			}
		}
		// Partition [0, bound] at midpoints between the on-axis crossings so
		// interval edges stay clear of the eigenvalues.
		var crossings []float64
		scale := 0.0
		for _, z := range eigs {
			if a := math.Hypot(real(z), imag(z)); a > scale {
				scale = a
			}
		}
		tol := 1e-8 * (1 + scale)
		for _, z := range eigs {
			if math.Abs(real(z)) < tol && imag(z) > tol {
				crossings = append(crossings, imag(z))
			}
		}
		sortFloats(crossings)
		edges := []float64{0}
		for i := 0; i+1 < len(crossings); i++ {
			edges = append(edges, math.Sqrt(crossings[i]*crossings[i+1]))
		}
		edges = append(edges, ic.OmegaBound()*1.000001)
		models++
		for i := 0; i+1 < len(edges); i++ {
			lo, hi := edges[i], edges[i+1]
			if hi-lo < 1e-9*hi {
				continue
			}
			got, err := ic.Count(context.Background(), lo, hi)
			if err != nil {
				skipped++
				continue
			}
			delta := ic.LastDelta()
			if ambiguous(eigs, lo, hi, delta) {
				skipped++
				continue
			}
			want := rectCount(eigs, lo, hi, delta)
			if got != want {
				t.Fatalf("seed %d interval [%g, %g] δ=%g: counter %d, dense oracle %d", seed, lo, hi, delta, got, want)
			}
			if icd != nil {
				if gotD, err := icd.Count(context.Background(), lo, hi); err == nil && !ambiguous(eigs, lo, hi, icd.LastDelta()) {
					if wantD := rectCount(eigs, lo, hi, icd.LastDelta()); gotD != wantD {
						t.Fatalf("seed %d interval [%g, %g]: dense backend %d, eigensolve %d", seed, lo, hi, gotD, wantD)
					}
					crossChecked++
				}
			}
			// Soundness anchor: zero count ⇒ no on-axis crossing inside.
			if got == 0 {
				for _, w := range crossings {
					if w > lo && w < hi {
						t.Fatalf("seed %d: zero count on [%g, %g] but crossing at %g", seed, lo, hi, w)
					}
				}
			}
			intervals++
		}
	}
	if models < 100 {
		t.Fatalf("oracle corpus too small: %d models", models)
	}
	if intervals < 300 {
		t.Fatalf("oracle compared only %d intervals (skipped %d)", intervals, skipped)
	}
	if crossChecked < 20 {
		t.Fatalf("dense-backend cross-check covered only %d intervals", crossChecked)
	}
	t.Logf("oracle: %d models, %d intervals agreed (%d dense cross-checks), %d skipped (boundary-ambiguous or stalled)", models, intervals, crossChecked, skipped)
}

// TestCounterRetiresProbeOpenInterval is the regression for the gap the
// counter stage closed: on the checked-in golden model the chain tail →
// lipschitz finishes with a non-empty Open set, and appending the counter
// stage retires it — Certified with Open == nil.
func TestCounterRetiresProbeOpenInterval(t *testing.T) {
	model := loadModelFixture(t, "testdata/counter_regression.json")

	before, err := NewPipeline(TailBoundCertifier(), LipschitzCertifier()).Run(model, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Violations) != 0 {
		t.Fatalf("fixture model unexpectedly violating: %+v", before.Violations)
	}
	if len(before.Open) == 0 {
		t.Fatal("fixture no longer reproduces the gap: restricted pipeline left nothing open")
	}
	if before.Certified {
		t.Fatal("restricted pipeline claims certified with open intervals")
	}

	after, err := NewPipeline(TailBoundCertifier(), LipschitzCertifier(), CounterCertifier()).Run(model, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Certified || len(after.Open) != 0 {
		t.Fatalf("counter did not retire the open set: certified=%v open=%v", after.Certified, after.Open)
	}
	if after.Stage != StageCounter {
		t.Fatalf("verdict stage = %q, want %q", after.Stage, StageCounter)
	}
	last := after.Stages[len(after.Stages)-1]
	if last.Stage != StageCounter || last.Certified != len(before.Open) {
		t.Fatalf("counter stage cost %+v, want Certified=%d", last, len(before.Open))
	}
	if last.Nodes == 0 {
		t.Fatal("counter stage recorded zero quadrature nodes")
	}

	// The default pipeline (with real dimension caps this model fits under)
	// must also finish fully settled.
	cert, err := Certify(model, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified || len(cert.Open) != 0 {
		t.Fatalf("default pipeline: certified=%v open=%v", cert.Certified, cert.Open)
	}
}

// TestCounterViolatingModel checks the other verdict: on a clearly
// non-passive model the counter-terminated pipeline proves violations
// rather than certifying.
func TestCounterViolatingModel(t *testing.T) {
	model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 10, Seed: 77, PeakGain: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(model, CheckOptions{Method: MethodHamiltonian})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passive {
		t.Skip("seed no longer produces a violating model")
	}
	cert, err := NewPipeline(TailBoundCertifier(), CounterCertifier()).Run(model, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Certified || len(cert.Violations) == 0 {
		t.Fatalf("counter pipeline missed the violations: %+v", cert)
	}
	for _, v := range cert.Violations {
		if v.SigmaPeak <= 1 {
			t.Fatalf("violation with σ peak %g ≤ 1", v.SigmaPeak)
		}
	}
}

// TestCounterBudget checks that an exhausted node budget surfaces as a
// stall (open interval downstream), not a wrong count.
func TestCounterBudget(t *testing.T) {
	model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 8, Seed: 5, PeakGain: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	ic, err := NewIntervalCounter(model, 1+1e-9)
	if err != nil {
		t.Fatal(err)
	}
	ic.Budget = 3 // far below one rectangle's minimum
	if _, err := ic.Count(context.Background(), 1, ic.OmegaBound()); err == nil {
		t.Fatal("budget-starved count succeeded")
	}
	if ic.Nodes() > 3 {
		t.Fatalf("budget overrun: %d nodes", ic.Nodes())
	}
}

// TestCounterUnconfirmedClusterNotCertified is the regression for the
// counter's false pass on narrow bands. The gadget's two crossings sit
// 0.016 rad/s apart, inside one cluster at the relTol·ω floor (~0.137
// rad/s at 137 rad/s), and one golden-section polish over the whole
// cluster misses the band between them. The counter used to certify such
// a cluster; it must now re-bisect it and prove the violation.
func TestCounterUnconfirmedClusterNotCertified(t *testing.T) {
	chain := NewPipeline(TailBoundCertifier(), LipschitzCertifier(), CounterCertifier())
	for _, seed := range []int64{3, 9, 15, 33, 51, 54, 60} {
		model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 10 + int(seed%4)*10, Seed: seed, NarrowBand: true})
		if err != nil {
			t.Fatal(err)
		}
		if cr, err := HamiltonianCrossings(model); err != nil || len(cr) == 0 {
			t.Fatalf("seed %d: oracle finds no crossing (err %v) — the gadget changed", seed, err)
		}
		cert, err := chain.Run(model, CheckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cert.Certified || len(cert.Violations) == 0 {
			t.Fatalf("seed %d: counter chain missed the narrow band: certified=%v violations=%d open=%v",
				seed, cert.Certified, len(cert.Violations), cert.Open)
		}
		ws := &checkWorkspace{}
		for _, v := range cert.Violations {
			if sv := ws.sigmaAt(model, v.OmegaPeak); sv <= 1 {
				t.Fatalf("seed %d: violation at ω=%g has σ=%g ≤ 1", seed, v.OmegaPeak, sv)
			}
		}
	}
}

// TestCounterHonoursDeadline: the counter checks the context before every
// rectangle count and once per node batch inside it, so under a 10 ms deadline both the counter stage (many
// open intervals) and one Crossings call over the whole axis (one segment
// bisected into many rectangles) return context.DeadlineExceeded in a
// small fraction of their uncancelled time instead of walking every
// contour first.
func TestCounterHonoursDeadline(t *testing.T) {
	synth := func(poles int) *rational.Model {
		m, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: poles, Seed: 9, NarrowBand: true})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	stageModel, segModel := synth(80), synth(40)
	runs := map[string]func(ctx context.Context) error{
		"counter stage": func(ctx context.Context) error {
			_, err := NewPipeline(CounterCertifier()).Run(stageModel, CheckOptions{Ctx: ctx})
			return err
		},
		"one segment": func(ctx context.Context) error {
			ic, err := NewIntervalCounter(segModel, 1+passivityTol)
			if err != nil {
				t.Fatal(err)
			}
			b := ic.OmegaBound()
			_, err = ic.Crossings(ctx, 0, b, adaptiveRelTol*b)
			return err
		},
	}
	for name, run := range runs {
		t0 := time.Now()
		if err := run(context.Background()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		full := time.Since(t0)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		t0 = time.Now()
		err := run(ctx)
		took := time.Since(t0)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
		if took > full/4 {
			t.Fatalf("%s: cancelled run took %v, uncancelled %v", name, took, full)
		}
	}
}

// LastDelta returns the real-direction half-width of the rectangle the
// most recent successful Count walked (the stall-retry ladder may shrink
// it below the initial width/4). Oracle tests use it to reproduce the
// exact region counted.
func (ic *IntervalCounter) LastDelta() float64 { return ic.lastDelta }
