package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments/hypothesis"
)

// TestHypothesesShape pins down the registered specs: every experiment
// must keep its ID, class and judgement subtype, because FINDINGS
// artifacts and the CLI refer to them by ID.
func TestHypothesesShape(t *testing.T) {
	reg, err := Hypotheses(Default())
	if err != nil {
		t.Fatal(err)
	}
	det, stat := hypothesis.Deterministic, hypothesis.Statistical
	inv := hypothesis.Invariant
	want := []struct {
		id      string
		class   hypothesis.Class
		subtype hypothesis.Subtype
	}{
		{"fig-1-standard-fit", det, inv},
		{"fig-2-fit-target-impedance", det, inv},
		{"fig-3-sensitivity-weight", det, inv},
		{"fig-4-singular-values", det, inv},
		{"fig-5-enforced-target-impedance", det, inv},
		{"fig-6-weighted-passive-scattering", det, inv},
		{"ext-a-representation-independence", det, inv},
		{"ext-b-transient-verification", det, inv},
		{"ext-c-mor-baseline", det, inv},
		{"ext-d-enforcement-ablation", det, inv},
		{"ext-e-adaptive-economy", stat, hypothesis.Dominance},
		{"ext-f-batch-bitwise", det, inv},
		{"ext-g-gramian-oracle", det, inv},
		{"ext-h-certified-closure", det, inv},
		{"ext-h-certified-overhead", stat, hypothesis.Bounded},
	}
	specs := reg.Specs()
	if len(specs) != len(want) {
		t.Fatalf("registry holds %d specs, want %d", len(specs), len(want))
	}
	for i, w := range want {
		s := specs[i]
		if s.ID != w.id || s.Class != w.class || s.Subtype != w.subtype {
			t.Fatalf("spec %d = %s/%s/%s, want %s/%s/%s",
				i, s.ID, s.Class, s.Subtype, w.id, w.class, w.subtype)
		}
		if s.Title == "" || s.Claim == "" || s.Primary == "" {
			t.Fatalf("spec %s missing title, claim or primary metric", s.ID)
		}
		if s.Subtype == hypothesis.Bounded && s.Threshold <= 0 {
			t.Fatalf("bounded spec %s has no explicit threshold", s.ID)
		}
	}
}

// TestHypothesesDeterministicConfirm evaluates every deterministic spec on
// the small configuration — each spec's Pass is its figure's shape
// criterion — and checks the artifacts it emits: FINDINGS JSON and
// markdown plus one CSV per plotted series. The sample-count economy spec
// ext-e rides along; the wall-clock overhead bound (ext-h overhead) is not
// re-timed here, its committed FINDINGS artifact records it.
func TestHypothesesDeterministicConfirm(t *testing.T) {
	for _, spec := range smallRegistry(t).Specs() {
		if spec.Class != hypothesis.Deterministic && spec.ID != "ext-e-adaptive-economy" {
			continue
		}
		t.Run(spec.ID, func(t *testing.T) {
			f, err := hypothesis.Evaluate(spec)
			if err != nil {
				t.Fatal(err)
			}
			if f.Verdict != hypothesis.Confirmed {
				t.Fatalf("judged %s: %s (metrics %v)", f.Verdict, f.Reason, f.Seeds[0].Metrics)
			}
			sr := f.Seeds[0]
			if len(sr.Metrics) == 0 {
				t.Fatal("trial carries no metrics")
			}
			if spec.Class == hypothesis.Deterministic && len(sr.Series) == 0 {
				t.Fatal("trial carries no plotted series")
			}
			dir := t.TempDir()
			jsPath, err := f.Write(dir)
			if err != nil {
				t.Fatal(err)
			}
			back, err := hypothesis.ReadFinding(jsPath)
			if err != nil {
				t.Fatal(err)
			}
			if back.ID != spec.ID || back.Verdict != hypothesis.Confirmed {
				t.Fatalf("artifact read back as %s/%s", back.ID, back.Verdict)
			}
			md, err := os.ReadFile(strings.TrimSuffix(jsPath, ".json") + ".md")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(md), "## Verdict: CONFIRMED") {
				t.Fatal("markdown artifact missing verdict header")
			}
			for _, s := range sr.Series {
				if len(s.X) == 0 {
					t.Fatalf("series %s is empty", s.Name)
				}
				if _, err := os.Stat(filepath.Join(dir, s.Name+".csv")); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
