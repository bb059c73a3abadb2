package passivity

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mat"
	"repro/internal/rational"
)

// TestAbandonedWorkspaceMatchesFresh: workspaces are scratch written
// before they are read, so one that a check abandoned mid-evaluation (a
// panic the service recovers from) while holding another model's buffers
// serves the next check bit for bit like a fresh one. The buffers this
// package owns are additionally poisoned with NaN over their whole
// capacity.
func TestAbandonedWorkspaceMatchesFresh(t *testing.T) {
	m, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 24, Seed: 3, PeakGain: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	other, err := SyntheticModel(SyntheticOptions{Ports: 3, Poles: 40, Seed: 7, PeakGain: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// An oversized residue makes the transfer evaluation index past the
	// 3×3 buffer: the check panics in the middle of its seed grid.
	broken := *other
	broken.Residues = append([]*mat.CMatrix(nil), other.Residues...)
	broken.Residues[0] = mat.NewCMatrix(4, 4)

	check := func(model *rational.Model, method Method, ws *checkWorkspace) *Report {
		t.Helper()
		opts := CheckOptions{Method: method, Workers: 1}
		opts.defaults(model)
		var rep *Report
		var err error
		switch method {
		case MethodAdaptive:
			rep, err = checkAdaptive(model, opts, ws)
		case MethodSweep:
			rep, err = checkSweep(model, opts, ws)
		default:
			rep, err = checkHamiltonian(nil, model, nil, ws)
		}
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, method := range []Method{MethodAdaptive, MethodSweep, MethodHamiltonian} {
		want := check(m, method, &checkWorkspace{})
		ws := &checkWorkspace{}
		check(other, MethodAdaptive, ws)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the broken model did not panic")
				}
			}()
			check(&broken, MethodAdaptive, ws)
		}()
		poisonWorkspace(ws)
		for pass := 0; pass < 2; pass++ {
			if got := check(m, method, ws); !reflect.DeepEqual(want, got) {
				t.Fatalf("method %d pass %d: reused workspace changed the report:\n%+v\nvs\n%+v", method, pass, got, want)
			}
		}
	}
}

// poisonWorkspace fills every buffer the package owns in ws with NaN (and
// the tail-bound cache with certPassive) up to its capacity.
func poisonWorkspace(ws *checkWorkspace) {
	nan := math.NaN()
	fill := func(buf []float64) {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = nan
		}
	}
	basis := ws.basis[:cap(ws.basis)]
	for i := range basis {
		basis[i] = complex(nan, nan)
	}
	h := ws.h.Data[:cap(ws.h.Data)]
	for i := range h {
		h[i] = complex(nan, nan)
	}
	a := &ws.adaptive
	for _, buf := range [][]float64{a.grid, a.lg, a.sv, a.spare.grid, a.spare.lg, a.spare.sv} {
		fill(buf)
	}
	for _, cert := range [][]int8{a.cert, a.spare.cert} {
		cert = cert[:cap(cert)]
		for i := range cert {
			cert[i] = certPassive
		}
	}
}
