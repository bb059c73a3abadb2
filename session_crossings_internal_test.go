package repro

// White-box tests of the crossings memo through a Session: the exact
// Hamiltonian crossings an operation leaves in a pole-set cache serve the
// next operation on the same residues, and never one on other residues.

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sessionEigensolves reads the eigensolve counter of the session cache
// holding m's pole set.
func sessionEigensolves(t *testing.T, s *Session, m *Macromodel) int {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.caches[PoleFingerprint(m)]
	if e == nil {
		t.Fatal("no session cache for the model's pole set")
	}
	return e.cache.Eigensolves
}

// memoized returns the report a check served from memoized crossings
// gives where a stateless check gives want: the same, except that its
// Hamiltonian stage solved no eigenproblem and carries got's note saying
// so, which must name the memo.
func memoized(t *testing.T, want, got *PassivityReport) *PassivityReport {
	t.Helper()
	out := *want
	cert := *want.Certificate
	cert.EigenDim = 0
	cert.Stages = slices.Clone(cert.Stages)
	for i, st := range got.Certificate.Stages {
		if st.Stage == "hamiltonian" {
			if !strings.Contains(st.Note, "memoized") {
				t.Fatalf("memo-served Hamiltonian stage note %q does not name the memo", st.Note)
			}
			cert.Stages[i].EigenDim, cert.Stages[i].Note = 0, st.Note
		}
	}
	out.Certificate = &cert
	return &out
}

// TestSessionCertifiedCheckAfterExtractRunsNoEigensolve: Extract's
// enforcement closes with the exact eigentest, so the certified check of
// the model it returns is served from the crossings it left behind, with
// the report a stateless check gives — except that its certificate
// reports no eigenproblem solved, where the stateless check reports the
// one it solved.
func TestSessionCertifiedCheckAfterExtractRunsNoEigensolve(t *testing.T) {
	syn, err := GeneratePDN(PDNSmall, LogFreqGrid(1e3, 2e9, 100, true), 50)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := NewSession()
	res, err := s.Extract(ctx, syn.Data, syn.Load, ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := sessionEigensolves(t, s, res.Model)
	if res.Enforcement == nil || before == 0 {
		t.Fatalf("test premise: enforcement must run and close with the eigentest (%d eigensolves)", before)
	}
	opts := CheckOptions{Certify: true}
	got, err := s.Check(ctx, res.Model, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := sessionEigensolves(t, s, res.Model) - before; n != 0 {
		t.Fatalf("certified check after Extract ran %d eigensolves, want 0", n)
	}
	if got.Certificate == nil || !got.Certificate.Certified {
		t.Fatalf("certified check: %+v", got.Certificate)
	}
	if got.Certificate.EigenDim != 0 {
		t.Fatalf("memo-served certificate reports eigenproblem dim %d, want 0", got.Certificate.EigenDim)
	}
	want := preSessionCheck(t, res.Model, opts)
	if dim := 2 * res.Model.model.NumPoles() * res.Model.model.Ports(); want.Certificate.EigenDim != dim {
		t.Fatalf("stateless certificate reports eigenproblem dim %d, want the solved %d", want.Certificate.EigenDim, dim)
	}
	if want := memoized(t, want, got); !reflect.DeepEqual(got, want) {
		t.Fatalf("memoized certified check differs from a stateless one:\n%+v\nvs\n%+v", got, want)
	}
}

// TestSessionCrossingsFollowResidues: a Session swap to another residue
// variant and back re-solves each time (the memo is not parked with the σ
// layer), and a passive model whose residues are then scaled into
// violation is reported non-passive, exactly as a stateless check reports
// it. A check that re-solves reports what a stateless check reports; the
// memo-served repeat differs only in the eigenproblem it did not solve.
func TestSessionCrossingsFollowResidues(t *testing.T) {
	a, err := SyntheticMacromodel(SyntheticModelOptions{Ports: 2, Poles: 20, Seed: 5, PeakGain: 0.09})
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	delta := make([]float64, b.model.NumPoles())
	delta[0] = 0.01
	b.model.AddToCVector(0, 0, delta)

	ctx := context.Background()
	opts := CheckOptions{Method: CheckHamiltonian, Certify: true}
	s := NewSession(WithWorkers(1))
	for i, m := range []*Macromodel{a, a, b, a} {
		got, err := s.Check(ctx, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := preSessionCheck(t, m, opts)
		if i == 1 {
			want = memoized(t, want, got)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("check %d differs from a stateless one", i)
		}
		if n, want := sessionEigensolves(t, s, a), []int{1, 1, 2, 3}[i]; n != want {
			t.Fatalf("after check %d: %d eigensolves, want %d", i, n, want)
		}
	}

	for k, r := range a.model.Residues {
		a.model.Residues[k] = r.Scale(complex(12, 0))
	}
	for _, method := range []CheckMethod{CheckHamiltonian, CheckAuto} {
		opts := CheckOptions{Method: method, Certify: true}
		got, err := s.Check(ctx, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Passive {
			t.Fatalf("method %v: residues scaled into violation, still reported passive", method)
		}
		if method == CheckHamiltonian {
			if want := preSessionCheck(t, a, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("check of the scaled model differs from a stateless one:\n%+v\nvs\n%+v", got, want)
			}
		}
	}
}
