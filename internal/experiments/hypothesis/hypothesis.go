// Package hypothesis is a harness for hypothesis-driven experiments: a
// behavioral claim is classified, run under the rigor rules its class
// demands, judged to a verdict, and recorded as a reproducible FINDINGS
// artifact (JSON + markdown).
//
// Classification determines rigor:
//
//   - Deterministic experiments verify exact properties — invariants,
//     conservation laws, bitwise reproducibility. A single seed suffices
//     (determinism is the point), pass/fail is exact, and a failure is
//     always a bug, never noise.
//
//   - Statistical experiments compare metrics whose values vary by seed.
//     They run on at least three seeds (default 42, 123, 456), the
//     predicted direction must hold on every seed — one contradicting
//     seed refutes the hypothesis — and the effect must clear a >20%
//     threshold on every seed to count as significant; smaller but
//     directionally consistent effects are inconclusive, not confirmed.
//
// Statistical subtypes refine the judgment: Dominance (A strictly beats B,
// primary metric is the per-seed ratio A/B), Bounded (the primary metric
// stays at or under a bound on every seed), Equivalence (the primary
// ratio stays within a ±5% band on every seed).
package hypothesis

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Class is the rigor class of a hypothesis.
type Class string

// Hypothesis classes.
const (
	Deterministic Class = "deterministic"
	Statistical   Class = "statistical"
)

// Subtype refines the statistical judgment (Invariant is the only
// deterministic subtype).
type Subtype string

// Hypothesis subtypes.
const (
	// Invariant: an exact property holds (deterministic).
	Invariant Subtype = "invariant"
	// Dominance: A strictly beats B; the primary metric is the per-seed
	// ratio A/B and must exceed 1+Threshold on every seed.
	Dominance Subtype = "dominance"
	// Bounded: the primary metric stays ≤ Threshold on every seed.
	Bounded Subtype = "bounded"
	// Equivalence: the primary ratio stays within ±Threshold of 1 on
	// every seed (default band 5%).
	Equivalence Subtype = "equivalence"
)

// Verdict is the outcome of judging a hypothesis.
type Verdict string

// Verdicts.
const (
	Confirmed    Verdict = "confirmed"
	Refuted      Verdict = "refuted"
	Inconclusive Verdict = "inconclusive"
)

// DefaultSeeds is the statistical seed set mandated by the experiment
// standards (minimum 3 seeds).
var DefaultSeeds = []int64{42, 123, 456}

// Default thresholds of the experiment standards.
const (
	// DefaultEffect is the significance threshold: >20% effect on every
	// seed for a dominance hypothesis to be confirmed.
	DefaultEffect = 0.20
	// DefaultEquivalenceBand is the ±5% equivalence band.
	DefaultEquivalenceBand = 0.05
)

// Trial is one seeded run of an experiment.
type Trial struct {
	// Primary is the value of the spec's primary metric for this seed
	// (for Dominance/Equivalence a ratio, for Bounded the bounded value;
	// ignored semantically for Invariant but still recorded).
	Primary float64
	// Pass is the per-seed check: the invariant for the deterministic
	// class, any side condition of the claim (such as verdict agreement)
	// for the statistical one. A false Pass refutes the hypothesis
	// whatever its class.
	Pass bool
	// Metrics are the supporting per-seed measurements, recorded in the
	// finding for transparency.
	Metrics map[string]float64
	// Notes are free-form per-seed observations.
	Notes []string
	// Series are the plotted data of the trial, written as CSV files next
	// to the FINDINGS artifacts (not part of the JSON).
	Series []*Series
}

// Series is one plottable column set: an x column plus named columns.
type Series struct {
	Name    string // file stem: the series is written as <Name>.csv
	X       []float64
	XLabel  string // CSV header of the x column; "" means "freq_hz"
	Order   []string
	Columns map[string][]float64
}

// WriteCSV writes the series to dir/<Name>.csv.
func (s *Series) WriteCSV(dir string) error {
	var b strings.Builder
	x := s.XLabel
	if x == "" {
		x = "freq_hz"
	}
	b.WriteString(x)
	for _, c := range s.Order {
		b.WriteString(",")
		b.WriteString(c)
	}
	b.WriteString("\n")
	for i := range s.X {
		fmt.Fprintf(&b, "%.10e", s.X[i])
		for _, c := range s.Order {
			fmt.Fprintf(&b, ",%.10e", s.Columns[c][i])
		}
		b.WriteString("\n")
	}
	return os.WriteFile(filepath.Join(dir, s.Name+".csv"), []byte(b.String()), 0o644)
}

// Spec declares one hypothesis experiment.
type Spec struct {
	// ID is the stable kebab-case identifier (artifact file names,
	// subcommand argument).
	ID string
	// Title is the one-line human name.
	Title string
	// Claim is the behavioral claim under test, stated falsifiably.
	Claim string
	// Class and Subtype classify the experiment (see package doc).
	Class   Class
	Subtype Subtype
	// Primary names the primary metric Trial.Primary reports.
	Primary string
	// Threshold overrides the class default: Dominance effect size
	// (default 0.20), Bounded upper bound (required), Equivalence band
	// (default 0.05). Ignored for Invariant.
	Threshold float64
	// Seeds overrides the seed set. Deterministic: default one seed (42).
	// Statistical: default DefaultSeeds; fewer than 3 is a spec error.
	Seeds []int64
	// Run executes one trial at the given seed.
	Run func(seed int64) (Trial, error)
}

// SeedResult is one trial as recorded in a finding.
type SeedResult struct {
	Seed    int64              `json:"seed"`
	Primary float64            `json:"primary"`
	Pass    bool               `json:"pass"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Notes   []string           `json:"notes,omitempty"`
	Series  []*Series          `json:"-"`
}

// Finding is the reproducible artifact of one evaluated hypothesis.
type Finding struct {
	ID            string       `json:"id"`
	Title         string       `json:"title"`
	Claim         string       `json:"claim"`
	Class         Class        `json:"class"`
	Subtype       Subtype      `json:"subtype"`
	PrimaryMetric string       `json:"primary_metric"`
	Threshold     float64      `json:"threshold"`
	Verdict       Verdict      `json:"verdict"`
	Reason        string       `json:"reason"`
	Mean          float64      `json:"mean"`
	Min           float64      `json:"min"`
	Max           float64      `json:"max"`
	Seeds         []SeedResult `json:"seeds"`
	// ElapsedMS is the wall time of the evaluation. It includes building
	// any artifact of the shared experiments.Context (the paper setup,
	// fitted models) this spec was the first to need, so it depends on
	// which specs ran before it in the same run and is not a per-spec
	// cost.
	ElapsedMS float64 `json:"elapsed_ms"`
	Date      string  `json:"date"`
}

// validate applies the rigor rules a spec must satisfy before running.
func (s *Spec) validate() error {
	if s.ID == "" || s.Run == nil {
		return fmt.Errorf("hypothesis: spec needs ID and Run (got ID=%q)", s.ID)
	}
	switch s.Class {
	case Deterministic:
		if s.Subtype != Invariant {
			return fmt.Errorf("hypothesis %s: deterministic class requires the invariant subtype", s.ID)
		}
	case Statistical:
		switch s.Subtype {
		case Dominance, Bounded, Equivalence:
		default:
			return fmt.Errorf("hypothesis %s: statistical class requires a dominance, bounded or equivalence subtype", s.ID)
		}
		if n := len(s.seeds()); n < 3 {
			return fmt.Errorf("hypothesis %s: statistical experiments need ≥3 seeds, got %d", s.ID, n)
		}
		if s.Subtype == Bounded && s.Threshold <= 0 {
			return fmt.Errorf("hypothesis %s: bounded subtype requires an explicit positive Threshold", s.ID)
		}
	default:
		return fmt.Errorf("hypothesis %s: unknown class %q", s.ID, s.Class)
	}
	return nil
}

// seeds resolves the effective seed set.
func (s *Spec) seeds() []int64 {
	if len(s.Seeds) > 0 {
		return s.Seeds
	}
	if s.Class == Deterministic {
		return DefaultSeeds[:1]
	}
	return DefaultSeeds
}

// threshold resolves the effective judgment threshold.
func (s *Spec) threshold() float64 {
	if s.Threshold != 0 {
		return s.Threshold
	}
	switch s.Subtype {
	case Equivalence:
		return DefaultEquivalenceBand
	default:
		return DefaultEffect
	}
}

// Evaluate runs the spec on its seed set and judges the verdict under the
// class rules. An error from any trial aborts the evaluation — a broken
// experiment yields no finding, not a refuted one.
func Evaluate(s *Spec) (*Finding, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	f := &Finding{
		ID: s.ID, Title: s.Title, Claim: s.Claim,
		Class: s.Class, Subtype: s.Subtype,
		PrimaryMetric: s.Primary, Threshold: s.threshold(),
		Date: start.UTC().Format("2006-01-02"),
	}
	for _, seed := range s.seeds() {
		tr, err := s.Run(seed)
		if err != nil {
			return nil, fmt.Errorf("hypothesis %s: seed %d: %w", s.ID, seed, err)
		}
		f.Seeds = append(f.Seeds, SeedResult{
			Seed: seed, Primary: tr.Primary, Pass: tr.Pass,
			Metrics: tr.Metrics, Notes: tr.Notes, Series: tr.Series,
		})
	}
	f.Mean, f.Min, f.Max = summarize(f.Seeds)
	f.Verdict, f.Reason = judge(s, f)
	f.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
	return f, nil
}

// summarize reports mean/min/max of the primary metric across seeds.
func summarize(seeds []SeedResult) (mean, mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	for _, sr := range seeds {
		mean += sr.Primary
		mn = math.Min(mn, sr.Primary)
		mx = math.Max(mx, sr.Primary)
	}
	mean /= float64(len(seeds))
	return mean, mn, mx
}

// judge applies the class/subtype rules: a seed whose Pass is false
// refutes (for an invariant that is always a bug); statistical verdicts
// demand directional consistency on every seed and the full effect
// threshold on every seed to confirm.
func judge(s *Spec, f *Finding) (Verdict, string) {
	for _, sr := range f.Seeds {
		if sr.Pass {
			continue
		}
		if s.Subtype == Invariant {
			return Refuted, fmt.Sprintf("invariant failed at seed %d — a deterministic failure is a bug, not noise", sr.Seed)
		}
		return Refuted, fmt.Sprintf("per-seed check failed at seed %d", sr.Seed)
	}
	thr := s.threshold()
	switch s.Subtype {
	case Invariant:
		return Confirmed, fmt.Sprintf("invariant held on all %d run(s)", len(f.Seeds))
	case Dominance:
		// Primary is the ratio A/B; effect per seed is ratio − 1.
		worst := math.Inf(1)
		for _, sr := range f.Seeds {
			worst = math.Min(worst, sr.Primary-1)
		}
		switch {
		case worst <= 0:
			return Refuted, fmt.Sprintf("direction contradicted: worst seed effect %+.1f%%", worst*100)
		case worst >= thr:
			return Confirmed, fmt.Sprintf("effect ≥ %.0f%% on every seed (worst %+.1f%%)", thr*100, worst*100)
		default:
			return Inconclusive, fmt.Sprintf("directionally consistent but worst seed effect %+.1f%% is below the %.0f%% threshold", worst*100, thr*100)
		}
	case Bounded:
		worst := math.Inf(-1)
		for _, sr := range f.Seeds {
			worst = math.Max(worst, sr.Primary)
		}
		if worst <= thr {
			return Confirmed, fmt.Sprintf("%s ≤ %g on every seed (worst %g)", s.Primary, thr, worst)
		}
		return Refuted, fmt.Sprintf("%s exceeded the %g bound (worst %g)", s.Primary, thr, worst)
	case Equivalence:
		worst := 0.0
		for _, sr := range f.Seeds {
			worst = math.Max(worst, math.Abs(sr.Primary-1))
		}
		switch {
		case worst <= thr:
			return Confirmed, fmt.Sprintf("within ±%.0f%% on every seed (worst deviation %.1f%%)", thr*100, worst*100)
		case worst <= 2*thr:
			return Inconclusive, fmt.Sprintf("worst deviation %.1f%% is between the ±%.0f%% band and twice it", worst*100, thr*100)
		default:
			return Refuted, fmt.Sprintf("deviation %.1f%% far outside the ±%.0f%% equivalence band", worst*100, thr*100)
		}
	}
	return Inconclusive, "unknown subtype"
}

// Markdown renders the finding as the FINDINGS document: claim,
// classification, verdict with reason, per-seed table, supporting metrics.
func (f *Finding) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# FINDINGS: %s\n\n", f.Title)
	fmt.Fprintf(&b, "- **ID:** %s\n- **Date:** %s\n- **Class:** %s / %s\n- **Primary metric:** %s (threshold %g)\n\n",
		f.ID, f.Date, f.Class, f.Subtype, f.PrimaryMetric, f.Threshold)
	fmt.Fprintf(&b, "## Hypothesis\n\n%s\n\n", f.Claim)
	fmt.Fprintf(&b, "## Verdict: %s\n\n%s\n\n", strings.ToUpper(string(f.Verdict)), f.Reason)
	fmt.Fprintf(&b, "Primary across seeds: mean %.6g, min %.6g, max %.6g.\n\n", f.Mean, f.Min, f.Max)
	fmt.Fprintf(&b, "## Per-seed results\n\n| seed | %s | pass |\n|---:|---:|:---|\n", f.PrimaryMetric)
	for _, sr := range f.Seeds {
		fmt.Fprintf(&b, "| %d | %.6g | %v |\n", sr.Seed, sr.Primary, sr.Pass)
	}
	b.WriteString("\n")
	for _, sr := range f.Seeds {
		if len(sr.Metrics) == 0 && len(sr.Notes) == 0 {
			continue
		}
		fmt.Fprintf(&b, "### Seed %d\n\n", sr.Seed)
		keys := make([]string, 0, len(sr.Metrics))
		for k := range sr.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "- %s: %.6g\n", k, sr.Metrics[k])
		}
		for _, n := range sr.Notes {
			fmt.Fprintf(&b, "- note: %s\n", n)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "_Evaluated in %.1f ms, including any shared context this spec was first to build (not a per-spec cost)._\n", f.ElapsedMS)
	return b.String()
}

// Write persists the finding under dir as FINDINGS-<id>.json and
// FINDINGS-<id>.md, plus one <series>.csv per plotted series of its
// trials, returning the JSON path.
func (f *Finding) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	js, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	jsPath := filepath.Join(dir, "FINDINGS-"+f.ID+".json")
	if err := os.WriteFile(jsPath, append(js, '\n'), 0o644); err != nil {
		return "", err
	}
	mdPath := filepath.Join(dir, "FINDINGS-"+f.ID+".md")
	if err := os.WriteFile(mdPath, []byte(f.Markdown()), 0o644); err != nil {
		return "", err
	}
	for _, sr := range f.Seeds {
		for _, ser := range sr.Series {
			if err := ser.WriteCSV(dir); err != nil {
				return "", err
			}
		}
	}
	return jsPath, nil
}

// ReadFinding loads a previously written FINDINGS JSON artifact.
func ReadFinding(path string) (*Finding, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f Finding
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("hypothesis: decoding %s: %w", path, err)
	}
	return &f, nil
}

// Registry holds hypothesis specs in registration order.
type Registry struct {
	order []string
	byID  map[string]*Spec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byID: make(map[string]*Spec)} }

// Register validates and adds a spec; duplicate IDs are an error.
func (r *Registry) Register(s Spec) error {
	if err := s.validate(); err != nil {
		return err
	}
	if _, dup := r.byID[s.ID]; dup {
		return fmt.Errorf("hypothesis: duplicate spec %q", s.ID)
	}
	sc := s
	r.byID[s.ID] = &sc
	r.order = append(r.order, s.ID)
	return nil
}

// Specs returns the registered specs in registration order.
func (r *Registry) Specs() []*Spec {
	out := make([]*Spec, len(r.order))
	for i, id := range r.order {
		out[i] = r.byID[id]
	}
	return out
}

// Get looks a spec up by ID.
func (r *Registry) Get(id string) (*Spec, bool) {
	s, ok := r.byID[id]
	return s, ok
}
