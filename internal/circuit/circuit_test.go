package circuit

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/mat"
)

func TestResistorDividerDriven(t *testing.T) {
	// 1A into a 2Ω–3Ω series chain to ground: node voltages 5V and 3V.
	c := New()
	n1 := c.Node()
	n2 := c.Node()
	c.AddResistor(n1, n2, 2)
	c.AddResistor(n2, Ground, 3)
	v, err := c.Solve(1e3, map[int]complex128{n1: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(v[n1]-5) > 1e-9 || cmplx.Abs(v[n2]-3) > 1e-9 {
		t.Fatalf("v = %v want [5 3]", v)
	}
}

func TestPortZSingleRLC(t *testing.T) {
	// Series R-L-C to ground: Z(f) = R + jωL + 1/(jωC).
	r, l, cap := 0.5, 2e-9, 1e-7
	c := New()
	n := c.Node()
	c.AddSeriesRLC(n, Ground, r, l, cap)
	c.DefinePort(n)
	for _, f := range []float64{1e5, 1e7, 1e9} {
		z, err := c.PortZ(f)
		if err != nil {
			t.Fatal(err)
		}
		omega := 2 * math.Pi * f
		want := complex(r, omega*l) + 1/complex(0, omega*cap)
		if cmplx.Abs(z.At(0, 0)-want) > 1e-6*cmplx.Abs(want) {
			t.Fatalf("f=%g: Z=%v want %v", f, z.At(0, 0), want)
		}
	}
}

func TestInductorIsShortAtDC(t *testing.T) {
	c := New()
	n1 := c.Node()
	n2 := c.Node()
	c.AddInductor(n1, n2, 1e-9)
	c.AddResistor(n2, Ground, 5)
	c.DefinePort(n1)
	z, err := c.PortZ(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(z.At(0, 0))-5) > 1e-6 || math.Abs(imag(z.At(0, 0))) > 1e-9 {
		t.Fatalf("DC impedance through inductor: %v want 5", z.At(0, 0))
	}
}

func TestFloatingCapacitorDCRegularized(t *testing.T) {
	// A node reachable only through a capacitor must not blow up the DC
	// solve thanks to GMin.
	c := New()
	n := c.Node()
	c.AddCapacitor(n, Ground, 1e-9)
	c.DefinePort(n)
	z, err := c.PortZ(0)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(z.At(0, 0)) < 1e9 {
		t.Fatalf("floating cap at DC should look like GMin: %v", z.At(0, 0))
	}
}

func TestReciprocityAndSymmetry(t *testing.T) {
	// Any linear RLC network is reciprocal: Z = Zᵀ.
	c := buildLadder()
	for _, f := range []float64{1e4, 1e6, 1e8} {
		z, err := c.PortZ(f)
		if err != nil {
			t.Fatal(err)
		}
		if !z.Equalish(z.T(), 1e-9*(1+z.MaxAbs())) {
			t.Fatalf("Z not symmetric at f=%g", f)
		}
	}
}

// buildLadder constructs a small 3-port RLC ladder used by several tests.
func buildLadder() *Circuit {
	c := New()
	nodes := make([]int, 5)
	for i := range nodes {
		nodes[i] = c.Node()
	}
	for i := 0; i+1 < len(nodes); i++ {
		c.AddSkinResistor(nodes[i], nodes[i+1], 0.01, 1e-6)
		c.AddInductor(nodes[i], nodes[i+1], 1e-9)
	}
	for _, n := range nodes {
		c.AddLossyCapacitor(n, Ground, 50e-12, 0.02)
	}
	c.AddResistor(nodes[0], Ground, 100) // damping so |S|<1 strictly
	c.DefinePort(nodes[0])
	c.DefinePort(nodes[2])
	c.DefinePort(nodes[4])
	return c
}

func TestPassivityOfScatteringData(t *testing.T) {
	// A passive RLC network must satisfy σ_max(S) ≤ 1 at every frequency.
	c := buildLadder()
	freqs := []float64{0, 1e3, 1e5, 1e7, 1e8, 5e8, 1e9, 5e9}
	ss, err := c.SweepS(freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ss {
		if sv := mat.MaxSingularValue(s); sv > 1+1e-9 {
			t.Fatalf("σmax(S)=%v > 1 at f=%g", sv, freqs[i])
		}
	}
}

func TestZToSRoundTrip(t *testing.T) {
	c := buildLadder()
	z, err := c.PortZ(3e7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ZToS(z, 50)
	if err != nil {
		t.Fatal(err)
	}
	z2, err := SToZ(s, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !z.Equalish(z2, 1e-8*(1+z.MaxAbs())) {
		t.Fatalf("Z→S→Z round trip failed")
	}
}

func TestZToSMatchesDefinition(t *testing.T) {
	// For a single 50Ω resistor port: S must be 0; for 100Ω: S = 1/3.
	c := New()
	n := c.Node()
	c.AddResistor(n, Ground, 50)
	c.DefinePort(n)
	s, err := c.PortS(1e6, 50)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(s.At(0, 0)) > 1e-9 {
		t.Fatalf("matched load S=%v want 0", s.At(0, 0))
	}
	c2 := New()
	n2 := c2.Node()
	c2.AddResistor(n2, Ground, 100)
	c2.DefinePort(n2)
	s2, err := c2.PortS(1e6, 50)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(s2.At(0, 0)-complex(1.0/3, 0)) > 1e-9 {
		t.Fatalf("100Ω load S=%v want 1/3", s2.At(0, 0))
	}
}

func TestSkinResistor(t *testing.T) {
	c := New()
	n := c.Node()
	c.AddSkinResistor(n, Ground, 1, 1e-3)
	c.DefinePort(n)
	z, err := c.PortZ(1e6)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 1e-3*math.Sqrt(1e6)
	if math.Abs(real(z.At(0, 0))-want) > 1e-9*want {
		t.Fatalf("skin R = %v want %v", real(z.At(0, 0)), want)
	}
}

func TestSweepSMatchesPointwise(t *testing.T) {
	c := buildLadder()
	freqs := []float64{1e4, 1e6, 1e8}
	sw, err := c.SweepS(freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range freqs {
		s, err := c.PortS(f, 50)
		if err != nil {
			t.Fatal(err)
		}
		if !sw[i].Equalish(s, 1e-12) {
			t.Fatalf("sweep mismatch at %g", f)
		}
	}
}

func TestDrivenMatchesPortZ(t *testing.T) {
	// Injecting 1A at a port and reading the port voltage equals Z column.
	c := buildLadder()
	f := 2.5e7
	z, err := c.PortZ(f)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Solve(f, map[int]complex128{c.PortNode(1): 1})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < c.NumPorts(); p++ {
		if cmplx.Abs(v[c.PortNode(p)]-z.At(p, 1)) > 1e-9*(1+cmplx.Abs(z.At(p, 1))) {
			t.Fatalf("driven voltage %v vs Z %v", v[c.PortNode(p)], z.At(p, 1))
		}
	}
}

func BenchmarkPortS3PortLadder(b *testing.B) {
	c := buildLadder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PortS(1e8, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// NumPorts returns the declared port count.
func (c *Circuit) NumPorts() int { return len(c.ports) }

// SToZ converts a scattering matrix back to impedance:
// Z = r0·(I+S)(I−S)⁻¹.
func SToZ(s *mat.CMatrix, r0 float64) (*mat.CMatrix, error) {
	p := s.Rows
	num := s.Clone()
	den := s.Clone().Scale(-1)
	for i := 0; i < p; i++ {
		num.Set(i, i, num.At(i, i)+1)
		den.Set(i, i, den.At(i, i)+1)
	}
	lu, err := mat.CLUFactor(den.T())
	if err != nil {
		return nil, fmt.Errorf("circuit: I−S singular: %w", err)
	}
	x := lu.Solve(num.T())
	return x.T().Scale(complex(r0, 0)), nil
}
