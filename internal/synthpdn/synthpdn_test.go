package synthpdn

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
	"repro/internal/mat"
	"repro/internal/pdn"
)

func logFreqs(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := float64(i) / float64(n-1)
		out[i] = lo * math.Pow(hi/lo, t)
	}
	return out
}

func TestPaper45PortMix(t *testing.T) {
	p, err := Build(Paper45())
	if err != nil {
		t.Fatal(err)
	}
	if p.Ports() != 45 {
		t.Fatalf("port count %d want 45", p.Ports())
	}
	counts := map[PortRole]int{}
	for _, r := range p.Roles {
		counts[r]++
	}
	if counts[RoleDie] != 24 || counts[RoleDecap] != 12 || counts[RoleVRM] != 1 || counts[RoleOpen] != 8 {
		t.Fatalf("role mix %v want die=24 decap=12 vrm=1 open=8", counts)
	}
	// Port ordering: die block first, then decap, then VRM, then open.
	for i := 0; i < 24; i++ {
		if p.Roles[i] != RoleDie {
			t.Fatalf("port %d should be die", i)
		}
	}
	if p.Roles[36] != RoleVRM {
		t.Fatalf("port 36 should be VRM")
	}
}

func TestSmallBuildDeterministic(t *testing.T) {
	a, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	sa, err := a.Circuit.PortS(1e8, 50)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Circuit.PortS(1e8, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !sa.Equalish(sb, 0) {
		t.Fatalf("same seed must give identical networks")
	}
}

func TestGeneratedDataIsPassive(t *testing.T) {
	// σ_max(S) ≤ 1 at every frequency — the generated network is a
	// terminated RLC circuit, hence provably passive; this validates the
	// whole MNA + Z→S chain.
	p, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	freqs := append([]float64{0}, logFreqs(1e3, 2e9, 40)...)
	ss, err := p.Circuit.SweepS(freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ss {
		if sv := mat.MaxSingularValue(s); sv > 1+1e-8 {
			t.Fatalf("σmax=%v > 1 at f=%g", sv, freqs[i])
		}
	}
}

func TestGeneratedDataIsReciprocal(t *testing.T) {
	p, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1e4, 1e7, 1e9} {
		s, err := p.Circuit.PortS(f, 50)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Equalish(s.T(), 1e-8*(1+s.MaxAbs())) {
			t.Fatalf("S not symmetric at %g", f)
		}
	}
}

func TestNominalLoadShape(t *testing.T) {
	p, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	load := p.NominalLoad()
	if err := load.Validate(p.Ports()); err != nil {
		t.Fatal(err)
	}
	if p.Roles[load.ObsPort] != RoleDie {
		t.Fatalf("observation port must be a die port")
	}
	// Total excitation 1 A over die ports only.
	var sum complex128
	for i, j := range load.J {
		sum += j
		if j != 0 && p.Roles[i] != RoleDie {
			t.Fatalf("excitation on non-die port %d", i)
		}
	}
	if cmplx.Abs(sum-1) > 1e-12 {
		t.Fatalf("total current %v", sum)
	}
	// VRM port must be shorted per the paper's setup.
	for i, r := range p.Roles {
		if r == RoleVRM {
			if _, ok := load.Terms[i].(pdn.Short); !ok {
				t.Fatalf("VRM termination should be a short, got %T", load.Terms[i])
			}
		}
	}
}

func TestScatteringVsDirectSimulation(t *testing.T) {
	// The headline cross-validation: Z_PDN from the scattering-domain
	// formula (eq. 2) must match the direct MNA simulation of the loaded
	// circuit, proving the S-parameter export, eq. (2) and the termination
	// models all agree.
	p, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	freqs := logFreqs(1e3, 2e9, 25)
	omega := make([]float64, len(freqs))
	for i, f := range freqs {
		omega[i] = 2 * math.Pi * f
	}
	r0 := 50.0
	ss, err := p.Circuit.SweepS(freqs, r0)
	if err != nil {
		t.Fatal(err)
	}
	load := p.NominalLoad()
	zS, err := pdn.TargetImpedance(omega, ss, r0, load)
	if err != nil {
		t.Fatal(err)
	}
	zDirect, err := p.LoadedReferenceZ(freqs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range freqs {
		rel := cmplx.Abs(zS[k]-zDirect[k]) / (1e-12 + cmplx.Abs(zDirect[k]))
		if rel > 1e-5 {
			t.Fatalf("f=%g: scattering-domain %v vs direct %v (rel %v)", freqs[k], zS[k], zDirect[k], rel)
		}
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	cfg := Small()
	cfg.NumDiePorts = 100
	if _, err := Build(cfg); err == nil {
		t.Fatalf("too many die ports accepted")
	}
	cfg = Small()
	cfg.NumDecapPorts = 0
	if _, err := Build(cfg); err == nil {
		t.Fatalf("zero decap ports accepted")
	}
}

func TestSensitivityShapeOnSmallPDN(t *testing.T) {
	// The PDN sensitivity should be largest at low frequency (where the
	// shorted VRM makes Z_PDN ≪ R0 and the S→Z map is stiff) and fall by
	// orders of magnitude into the GHz range — the mechanism behind the
	// paper's Fig. 3.
	p, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	freqs := logFreqs(1e3, 2e9, 30)
	omega := make([]float64, len(freqs))
	for i, f := range freqs {
		omega[i] = 2 * math.Pi * f
	}
	ss, err := p.Circuit.SweepS(freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	xi, err := pdn.Sensitivity(omega, ss, 50, p.NominalLoad())
	if err != nil {
		t.Fatal(err)
	}
	if xi[0] < 10*xi[len(xi)-1] {
		t.Fatalf("sensitivity should drop from LF to HF: Ξ(lo)=%v Ξ(hi)=%v", xi[0], xi[len(xi)-1])
	}
}

func BenchmarkSweepSmallPDN(b *testing.B) {
	p, err := Build(Small())
	if err != nil {
		b.Fatal(err)
	}
	freqs := logFreqs(1e3, 2e9, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Circuit.SweepS(freqs, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// LoadedReferenceZ computes the reference Z_PDN directly in the circuit
// domain: the nominal terminations are instantiated as circuit elements on
// a fresh copy of the structure and the voltage at the observation node is
// solved per frequency. This bypasses the scattering representation
// entirely and cross-validates eq. (2).
func (p *PDN) LoadedReferenceZ(freqs []float64) ([]complex128, error) {
	load := p.NominalLoad()
	// Rebuild the circuit (elements are append-only, so build a fresh one
	// to avoid mutating the S-parameter network).
	fresh, err := Build(p.Config)
	if err != nil {
		return nil, err
	}
	c := fresh.Circuit
	currents := map[int]complex128{}
	for i, t := range load.Terms {
		node := c.PortNode(i)
		switch m := t.(type) {
		case pdn.Short:
			c.AddResistor(node, circuit.Ground, 1e-8)
		case pdn.Resistor:
			c.AddResistor(node, circuit.Ground, m.R)
		case pdn.SeriesRLC:
			c.AddSeriesRLC(node, circuit.Ground, m.R, m.L, m.C)
		case pdn.Open:
			// nothing
		default:
			return nil, fmt.Errorf("synthpdn: unsupported termination %T for direct simulation", t)
		}
		if load.J[i] != 0 {
			currents[node] = load.J[i]
		}
	}
	obsNode := c.PortNode(load.ObsPort)
	out := make([]complex128, len(freqs))
	for k, f := range freqs {
		v, err := c.Solve(f, currents)
		if err != nil {
			return nil, err
		}
		out[k] = v[obsNode]
	}
	return out, nil
}
