package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	repro "repro"
	"repro/internal/experiments/hypothesis"
)

// smallCfg is the reduced-cost 8-port configuration the tests run.
var smallCfg = Config{
	Points:        60,
	Poles:         10,
	WeightOrder:   8,
	VFIterations:  5,
	EnforceMargin: 2e-5,
	Preset:        repro.PDNSmall,
}

// smallReg shares one registry — and so one lazy Context — across the
// tests in this package; the first spec to need an artifact builds it.
var smallReg, smallErr = Hypotheses(smallCfg)

func smallRegistry(t *testing.T) *hypothesis.Registry {
	t.Helper()
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallReg
}

// writeFinding evaluates one spec of the small registry, requires it
// confirmed and writes its artifacts into a fresh directory.
func writeFinding(t *testing.T, id string) string {
	t.Helper()
	spec, ok := smallRegistry(t).Get(id)
	if !ok {
		t.Fatalf("spec %s not registered", id)
	}
	f, err := hypothesis.Evaluate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if f.Verdict != hypothesis.Confirmed {
		t.Fatalf("%s judged %s: %s", id, f.Verdict, f.Reason)
	}
	dir := t.TempDir()
	if _, err := f.Write(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCSVOutput(t *testing.T) {
	dir := writeFinding(t, "fig-2-fit-target-impedance")
	blob, err := os.ReadFile(filepath.Join(dir, "fig2_target_impedance_after_fitting.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if !strings.HasPrefix(lines[0], "freq_hz,z_nominal_ohm") {
		t.Fatalf("CSV header wrong: %q", lines[0])
	}
	if len(lines) != smallCfg.Points+2 { // header + DC + points
		t.Fatalf("CSV rows %d want %d", len(lines), smallCfg.Points+2)
	}
}

func TestExtensionCSVEmission(t *testing.T) {
	dir := writeFinding(t, "ext-d-enforcement-ablation")
	data, err := os.ReadFile(filepath.Join(dir, "extD_enforcement_ablation.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "freq_hz,") {
		t.Fatalf("unexpected CSV header: %.60s", data)
	}
}

func TestTransientSeriesUsesTimeAxis(t *testing.T) {
	dir := writeFinding(t, "ext-b-transient-verification")
	data, err := os.ReadFile(filepath.Join(dir, "extB_transient_tone_waveforms.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time_s,") {
		t.Fatalf("unexpected CSV header: %.60s", data)
	}
}
