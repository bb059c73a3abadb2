package passivity

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/rational"
)

// certifyGoldenPath holds the certificates and reports of the golden
// corpus. A refactor of the certifier must leave every field of them
// unchanged; a change that alters one on purpose re-records the file:
// delete it and run TestCertifyGolden once, which writes the file and
// fails, and the next run compares against it.
const certifyGoldenPath = "testdata/certify_golden.json"

// goldenCertify runs the default certification pipeline.
func goldenCertify(m *rational.Model, opts CheckOptions) (*Certificate, error) {
	return Certify(m, opts)
}

// goldenRun runs a pipeline built from the given stages.
func goldenRun(m *rational.Model, opts CheckOptions, stages ...Certifier) (*Certificate, error) {
	return NewPipeline(stages...).Run(m, opts)
}

// goldenLargeChain runs the large-model chain on a model of any size.
func goldenLargeChain(m *rational.Model, opts CheckOptions) (*Certificate, error) {
	return goldenRun(m, opts, largeChain().Stages...)
}

// goldenFlatten appends one "path=value" line per exported leaf of v.
// Floats are written in the shortest form that parses back to the same
// bits, and nil pointers and slices are told apart from empty ones.
func goldenFlatten(out []string, path string, v reflect.Value) []string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return append(out, path+"=nil")
		}
		return goldenFlatten(out, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				out = goldenFlatten(out, path+"."+f.Name, v.Field(i))
			}
		}
		return out
	case reflect.Slice:
		if v.IsNil() {
			return append(out, path+"=nil")
		}
		out = append(out, fmt.Sprintf("%s.len=%d", path, v.Len()))
		for i := 0; i < v.Len(); i++ {
			out = goldenFlatten(out, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
		return out
	case reflect.Float64:
		return append(out, path+"="+strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.Int:
		return append(out, path+"="+strconv.FormatInt(v.Int(), 10))
	case reflect.Bool:
		return append(out, path+"="+strconv.FormatBool(v.Bool()))
	case reflect.String:
		return append(out, path+"="+strconv.Quote(v.String()))
	}
	panic("goldenFlatten: unhandled kind " + v.Kind().String() + " at " + path)
}

// goldenModelHash fingerprints the bits of a model's residues and D.
func goldenModelHash(m *rational.Model) string {
	h := sha256.New()
	put := func(x float64) {
		var b [8]byte
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, r := range m.Residues {
		for _, z := range r.Data {
			put(real(z))
			put(imag(z))
		}
	}
	for _, x := range m.D.Data {
		put(x)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenRecords runs the corpus and flattens every certificate and report
// it produces, keyed by case name.
func goldenRecords(t *testing.T) map[string][]string {
	t.Helper()
	recs := map[string][]string{}
	add := func(name string, v any, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		recs[name] = goldenFlatten(nil, "", reflect.ValueOf(v))
	}
	synth := func(o SyntheticOptions) *rational.Model {
		m, err := SyntheticModel(o)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// The small chain (N ≤ 600): the default pipeline directly, behind a
	// warm adaptive check, and through certified checks of every method.
	small := []struct {
		name string
		m    *rational.Model
	}{
		{"passive-2p20", synth(SyntheticOptions{Ports: 2, Poles: 20, Seed: 5, PeakGain: 0.09})},
		{"passive-2p40", synth(SyntheticOptions{Ports: 2, Poles: 40, Seed: 10, PeakGain: 0.03, DSigma: 0.6})},
		{"passive-3p100", synth(SyntheticOptions{Ports: 3, Poles: 100, Seed: 7, PeakGain: 0.05})},
		{"violating-2p10", synth(SyntheticOptions{Ports: 2, Poles: 10, Seed: 77, PeakGain: 0.5})},
		{"violating-2p24", synth(SyntheticOptions{Ports: 2, Poles: 24, Seed: 21, PeakGain: 0.3})},
		{"narrow-2p12", synth(SyntheticOptions{Ports: 2, Poles: 12, Seed: 3, NarrowBand: true})},
		{"narrow-2p40", synth(SyntheticOptions{Ports: 2, Poles: 40, Seed: 9, NarrowBand: true})},
		{"counter-fixture", loadModelFixture(t, "testdata/counter_regression.json")},
	}
	for _, c := range small {
		cert, err := goldenCertify(c.m, CheckOptions{})
		add("small/"+c.name+"/certify", cert, err)

		warm := CheckOptions{Method: MethodAdaptive, Cache: NewEvalCache()}
		if _, err := Check(c.m, warm); err != nil {
			t.Fatal(err)
		}
		cert, err = goldenCertify(c.m, warm)
		add("small/"+c.name+"/certify-warm", cert, err)

		for _, meth := range []struct {
			name string
			m    Method
		}{{"auto", MethodAuto}, {"adaptive", MethodAdaptive}, {"sweep", MethodSweep}, {"hamiltonian", MethodHamiltonian}} {
			rep, err := Check(c.m, CheckOptions{Method: meth.m, Certify: true})
			add("small/"+c.name+"/check-"+meth.name, rep, err)
		}
	}

	// The large chain, built explicitly on small models and reached by the
	// default pipeline on one model past the full eigentest's gate; then
	// the restricted and counter stages each straight behind the tail
	// bound, where they meet the violations the sweep would catch first.
	for _, c := range small {
		if c.name == "passive-3p100" {
			continue
		}
		cert, err := goldenLargeChain(c.m, CheckOptions{})
		add("large/"+c.name+"/chain", cert, err)

		warm := CheckOptions{Method: MethodAdaptive, Cache: NewEvalCache()}
		if _, err := Check(c.m, warm); err != nil {
			t.Fatal(err)
		}
		cert, err = goldenLargeChain(c.m, warm)
		add("large/"+c.name+"/chain-warm", cert, err)

		cert, err = goldenRun(c.m, CheckOptions{}, TailBoundCertifier(), RestrictedHamiltonianCertifier())
		add("large/"+c.name+"/tail-restricted", cert, err)
		cert, err = goldenRun(c.m, CheckOptions{}, TailBoundCertifier(), CounterCertifier())
		add("large/"+c.name+"/tail-counter", cert, err)
		cert, err = goldenRun(c.m, CheckOptions{}, TailBoundCertifier(), LipschitzCertifier(), CounterCertifier())
		add("large/"+c.name+"/tail-lipschitz-counter", cert, err)
	}
	big := synth(SyntheticOptions{Ports: 2, Poles: 160, Seed: 11, PeakGain: 0.05})
	cert, err := goldenCertify(big, CheckOptions{})
	add("large/passive-2p160/certify", cert, err)
	rep, err := Check(big, CheckOptions{Method: MethodAdaptive, Certify: true})
	add("large/passive-2p160/check-adaptive", rep, err)

	// Intervals whose reduced model sits above its level without crossing
	// it, so the restricted stage judges the whole interval on the full
	// model: violating models on their own, an enforced one behind the
	// sweep.
	for _, c := range []struct {
		name string
		o    SyntheticOptions
	}{
		{"violating-2p18", SyntheticOptions{Ports: 2, Poles: 18, Seed: 602, PeakGain: 0.4}},
		{"violating-2p26", SyntheticOptions{Ports: 2, Poles: 26, Seed: 604, PeakGain: 0.4}},
	} {
		cert, err := goldenRun(synth(c.o), CheckOptions{}, RestrictedHamiltonianCertifier())
		add("large/"+c.name+"/restricted", cert, err)
	}
	enforced := synth(SyntheticOptions{Ports: 2, Poles: 18, Seed: 802, PeakGain: 0.4})
	if _, err := Enforce(enforced, EnforceOptions{}); err != nil {
		t.Fatal(err)
	}
	cert, err = goldenLargeChain(enforced, CheckOptions{})
	add("large/enforced-2p18/chain", cert, err)

	// A service-mix-style certified enforcement: 4 ports, 60 poles, the
	// adaptive check, certification on convergence.
	for _, seed := range []int64{100, 101} {
		m := synth(SyntheticOptions{Ports: 4, Poles: 60, Seed: seed, PeakGain: 0.9})
		er, err := Enforce(m, EnforceOptions{Check: CheckOptions{Method: MethodAdaptive}, Certify: true})
		name := fmt.Sprintf("enforce/4p60-seed%d", seed)
		add(name+"/report", er, err)
		recs[name+"/model"] = []string{"sha256=" + goldenModelHash(m)}
	}
	return recs
}

// TestCertifyGolden pins every field of the certificates and reports of
// the golden corpus, bit for bit: the small and large certification
// chains on passive, violating and narrow-band models, and certified
// enforcement (report and enforced residues) of service-mix-style models.
func TestCertifyGolden(t *testing.T) {
	got := goldenRecords(t)
	b, err := os.ReadFile(certifyGoldenPath)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(certifyGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d cases); run the test again to compare against it", certifyGoldenPath, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, golden file has %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: case missing", name)
			continue
		}
		for i := 0; i < max(len(g), len(w)); i++ {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			if gl != wl {
				t.Errorf("%s: line %d is %q, golden %q", name, i, gl, wl)
				break
			}
		}
	}
}
