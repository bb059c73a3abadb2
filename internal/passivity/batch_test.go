package passivity_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	repro "repro"
	"repro/internal/passivity"
	"repro/internal/rational"
)

// The batch fan-out lives on the root Session (Session.EnforceBatch); these
// tests pin it to this package's own sequential Enforce, bit for bit.

// batchOptions are the synthetic-library options of model i.
func batchOptions(i int) passivity.SyntheticOptions {
	return passivity.SyntheticOptions{Ports: 2, Poles: 16 + 2*(i%3), Seed: int64(40 + i), PeakGain: 1.1}
}

// kernelLibrary builds the deterministic violating library as engine models.
func kernelLibrary(t *testing.T, n int) []*rational.Model {
	t.Helper()
	lib := make([]*rational.Model, n)
	for i := range lib {
		m, err := passivity.SyntheticModel(batchOptions(i))
		if err != nil {
			t.Fatal(err)
		}
		lib[i] = m
	}
	return lib
}

// sessionLibrary builds the same library as root macromodels.
func sessionLibrary(t *testing.T, n int) []*repro.Macromodel {
	t.Helper()
	lib := make([]*repro.Macromodel, n)
	for i := range lib {
		o := batchOptions(i)
		m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: o.Ports, Poles: o.Poles, Seed: o.Seed, PeakGain: o.PeakGain,
		})
		if err != nil {
			t.Fatal(err)
		}
		lib[i] = m
	}
	return lib
}

// macromodelBytes encodes an engine model in the root model JSON layout and
// re-encodes it through Macromodel, so it compares byte for byte with a
// marshalled Macromodel: equal bytes mean bitwise equal poles, residues
// and D.
func macromodelBytes(t *testing.T, m *rational.Model) string {
	t.Helper()
	p := m.Ports()
	var w struct {
		R0       float64          `json:"r0"`
		Poles    [][2]float64     `json:"poles"`
		Residues [][][][2]float64 `json:"residues"`
		D        [][]float64      `json:"d"`
	}
	w.R0 = 50
	for k, pole := range m.Poles {
		w.Poles = append(w.Poles, [2]float64{real(pole), imag(pole)})
		rm := make([][][2]float64, p)
		for i := range rm {
			rm[i] = make([][2]float64, p)
			for j := range rm[i] {
				z := m.Residues[k].At(i, j)
				rm[i][j] = [2]float64{real(z), imag(z)}
			}
		}
		w.Residues = append(w.Residues, rm)
	}
	for i := 0; i < p; i++ {
		row := make([]float64, p)
		for j := range row {
			row[j] = m.D.At(i, j)
		}
		w.D = append(w.D, row)
	}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var mm repro.Macromodel
	if err := json.Unmarshal(raw, &mm); err != nil {
		t.Fatal(err)
	}
	return sessionBytes(t, &mm)
}

func sessionBytes(t *testing.T, m *repro.Macromodel) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// batchWeight is a deterministic stable SISO weight, as an engine model and
// as the root Weight read from the same pole-residue data.
func batchWeight(t *testing.T) (*rational.Model, *repro.Weight) {
	t.Helper()
	poles := []complex128{complex(-2, 0), complex(-40, 300), complex(-40, -300)}
	residues := []complex128{complex(3, 0), complex(1, 2), complex(1, -2)}
	const d = 0.5
	m, err := rational.NewScalar(poles, residues, d)
	if err != nil {
		t.Fatal(err)
	}
	var in struct {
		Poles    [][2]float64 `json:"poles"`
		Residues [][2]float64 `json:"residues"`
		D        float64      `json:"d"`
	}
	for i := range poles {
		in.Poles = append(in.Poles, [2]float64{real(poles[i]), imag(poles[i])})
		in.Residues = append(in.Residues, [2]float64{real(residues[i]), imag(residues[i])})
	}
	in.D = d
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var w repro.Weight
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	return m, &w
}

// assertBatchMatchesKernel runs Session.EnforceBatch at 1 and 4 workers and
// requires every model and report to match the sequential engine run.
func assertBatchMatchesKernel(t *testing.T, seq []*rational.Model, seqReports []*passivity.EnforceReport, opts repro.EnforceOptions) {
	t.Helper()
	n := len(seq)
	for _, workers := range []int{1, 4} {
		lib := sessionLibrary(t, n)
		rep, err := repro.NewSession().EnforceBatch(context.Background(), lib, repro.BatchEnforceOptions{
			Enforce: opts, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Models != n || rep.Failed != 0 || rep.Passive != n {
			t.Fatalf("workers=%d: bad aggregates: %d models, %d failed, %d passive",
				workers, rep.Models, rep.Failed, rep.Passive)
		}
		for i := range lib {
			if rep.Errors[i] != nil {
				t.Fatalf("workers=%d model %d: %v", workers, i, rep.Errors[i])
			}
			if sessionBytes(t, lib[i]) != macromodelBytes(t, seq[i]) {
				t.Fatalf("workers=%d model %d: batch result differs bitwise from sequential", workers, i)
			}
			r, s := rep.Reports[i], seqReports[i]
			if r.Iterations != s.Iterations || r.Final.MaxSigma != s.Final.MaxSigma ||
				r.Final.MaxFreqHz != s.Final.MaxOmega/(2*math.Pi) {
				t.Fatalf("workers=%d model %d: report differs: %+v vs %+v", workers, i, r.Final, s.Final)
			}
		}
	}
}

// TestEnforceBatchMatchesSequential: the batch path must be bitwise
// identical to per-model sequential Enforce — same residues, same reports —
// for any worker count.
func TestEnforceBatchMatchesSequential(t *testing.T) {
	const n = 6
	seq := kernelLibrary(t, n)
	seqReports := make([]*passivity.EnforceReport, n)
	for i, m := range seq {
		rep, err := passivity.Enforce(m, passivity.EnforceOptions{
			Check: passivity.CheckOptions{Method: passivity.MethodAdaptive},
		})
		if err != nil {
			t.Fatalf("sequential model %d: %v", i, err)
		}
		seqReports[i] = rep
	}
	assertBatchMatchesKernel(t, seq, seqReports, repro.EnforceOptions{
		Check: repro.CheckOptions{Method: repro.CheckAdaptive},
	})
}

// TestEnforceBatchWeightedMatchesSequential: with a shared sensitivity
// weight the batch path must be bitwise identical — residues and reports —
// to sequential per-model weighted enforcement (Enforce with the
// closed-form cascade Gramian as cost) at every worker count.
func TestEnforceBatchWeightedMatchesSequential(t *testing.T) {
	const n = 6
	weight, pubWeight := batchWeight(t)
	seq := kernelLibrary(t, n)
	seqReports := make([]*passivity.EnforceReport, n)
	for i, m := range seq {
		gram, err := rational.CascadeGramian(m.Poles, weight)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := passivity.Enforce(m, passivity.EnforceOptions{
			Check:       passivity.CheckOptions{Method: passivity.MethodAdaptive},
			CostGramian: gram,
		})
		if err != nil {
			t.Fatalf("sequential weighted model %d: %v", i, err)
		}
		seqReports[i] = rep
	}
	assertBatchMatchesKernel(t, seq, seqReports, repro.EnforceOptions{
		Check:  repro.CheckOptions{Method: repro.CheckAdaptive},
		Weight: pubWeight,
	})
}

// TestEnforceBatchCancellationDrainsAndMarksSlots: cancelling mid-batch
// leaves every slot either completed or carrying context.Canceled, counts
// exactly the cancelled slots as failed, tags every progress event with an
// in-range model index, and leaks no goroutines.
func TestEnforceBatchCancellationDrainsAndMarksSlots(t *testing.T) {
	models := make([]*repro.Macromodel, 8)
	for i := range models {
		m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: 2, Poles: 24, Seed: 700 + int64(i), PeakGain: 0.9,
		})
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events int64
	s := repro.NewSession(repro.WithProgress(func(ev repro.ProgressEvent) {
		if atomic.AddInt64(&events, 1) == 2 {
			cancel()
		}
		if ev.Model < 0 || ev.Model >= len(models) {
			t.Errorf("progress event with out-of-range model %d", ev.Model)
		}
	}))
	rep, err := s.EnforceBatch(ctx, models, repro.BatchEnforceOptions{
		Enforce: repro.EnforceOptions{
			Check:  repro.CheckOptions{Method: repro.CheckAdaptive},
			ClampD: true,
		},
		Workers: 2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if rep.Models != len(models) {
		t.Fatalf("report covers %d models, want %d", rep.Models, len(models))
	}
	var completed, cancelled int
	for i := range models {
		switch {
		case rep.Errors[i] == nil:
			if rep.Reports[i] == nil || rep.Reports[i].Final == nil {
				t.Fatalf("model %d: no error but incomplete report", i)
			}
			completed++
		case errors.Is(rep.Errors[i], context.Canceled):
			cancelled++
		default:
			t.Fatalf("model %d: unexpected error %v", i, rep.Errors[i])
		}
	}
	if cancelled == 0 {
		t.Fatal("no model was cancelled — the cancel raced past the batch")
	}
	if completed+cancelled != len(models) {
		t.Fatalf("slots unaccounted: %d completed + %d cancelled of %d", completed, cancelled, len(models))
	}
	if rep.Failed != cancelled {
		t.Fatalf("report counts %d failed, want the %d cancelled models", rep.Failed, cancelled)
	}
	// Zero leaked goroutines, with a settle loop for runtime bookkeeping.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
