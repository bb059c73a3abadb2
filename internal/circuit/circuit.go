// Package circuit implements a linear AC circuit simulator based on
// modified nodal analysis (MNA). It plays the role of the commercial field
// solver used in the paper: multiport PDN structures are described as RLC
// networks, swept in frequency, and exported as scattering parameters.
//
// Supported elements: resistors (optionally with a √f skin-effect term),
// conductances, capacitors (optionally with dielectric loss tangent),
// inductors (with optional series resistance), and current sources for
// direct driven analyses. Ports are defined between a node and ground.
package circuit

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// Ground is the reference node index.
const Ground = 0

// Circuit is a linear network under construction. Node 0 is ground; other
// nodes are allocated with Node(). The zero value is not usable — call New.
type Circuit struct {
	numNodes  int // including ground
	resistors []resistor
	caps      []capacitor
	inductors []inductor
	ports     []int // port k is between node ports[k] and ground
	// GMin is a tiny leak conductance from every node to ground that keeps
	// the MNA matrix nonsingular at DC when nodes float behind capacitors.
	GMin float64
}

type resistor struct {
	a, b int
	r    float64 // DC resistance, Ω
	skin float64 // additional Ω·s^½ term: R(f) = r + skin·√f
}

type capacitor struct {
	a, b int
	c    float64 // F
	tanD float64 // dielectric loss tangent: Y = jωC + ωC·tanδ
}

type inductor struct {
	a, b int
	l    float64 // H
	r    float64 // series resistance folded into the branch equation
	skin float64 // additional Ω·s^½ series term, as in AddSkinResistor
}

// New returns an empty circuit with only the ground node.
func New() *Circuit {
	return &Circuit{numNodes: 1, GMin: 1e-12}
}

// Node allocates a new circuit node and returns its index.
func (c *Circuit) Node() int {
	c.numNodes++
	return c.numNodes - 1
}

func (c *Circuit) checkNode(n int) {
	if n < 0 || n >= c.numNodes {
		panic(fmt.Sprintf("circuit: node %d out of range (have %d)", n, c.numNodes))
	}
}

// AddResistor connects a resistance R (Ω) between nodes a and b.
func (c *Circuit) AddResistor(a, b int, r float64) {
	c.AddSkinResistor(a, b, r, 0)
}

// AddSkinResistor connects a frequency-dependent resistance
// R(f) = rdc + skin·√f between a and b, modeling conductor skin effect.
func (c *Circuit) AddSkinResistor(a, b int, rdc, skin float64) {
	c.checkNode(a)
	c.checkNode(b)
	if rdc <= 0 && skin <= 0 {
		panic("circuit: resistor must have positive resistance")
	}
	c.resistors = append(c.resistors, resistor{a, b, rdc, skin})
}

// AddCapacitor connects capacitance C (F) between a and b.
func (c *Circuit) AddCapacitor(a, b int, farads float64) {
	c.AddLossyCapacitor(a, b, farads, 0)
}

// AddLossyCapacitor connects C with dielectric loss tangent tanD.
func (c *Circuit) AddLossyCapacitor(a, b int, farads, tanD float64) {
	c.checkNode(a)
	c.checkNode(b)
	if farads <= 0 {
		panic("circuit: capacitance must be positive")
	}
	c.caps = append(c.caps, capacitor{a, b, farads, tanD})
}

// AddInductor connects inductance L (H) between a and b.
func (c *Circuit) AddInductor(a, b int, henries float64) {
	c.AddLossyInductor(a, b, henries, 0)
}

// AddLossyInductor connects L with a series resistance r inside the branch.
func (c *Circuit) AddLossyInductor(a, b int, henries, r float64) {
	c.AddSkinInductor(a, b, henries, r, 0)
}

// AddSkinInductor connects L with a frequency-dependent series resistance
// r(f) = r + skin·√f folded into the branch equation — the unit-cell model
// for power planes (conductor loss grows with skin depth).
func (c *Circuit) AddSkinInductor(a, b int, henries, r, skin float64) {
	c.checkNode(a)
	c.checkNode(b)
	if henries <= 0 {
		panic("circuit: inductance must be positive")
	}
	c.inductors = append(c.inductors, inductor{a, b, henries, r, skin})
}

// DefinePort declares a port between node n and ground. Ports are numbered
// in declaration order.
func (c *Circuit) DefinePort(n int) int {
	c.checkNode(n)
	if n == Ground {
		panic("circuit: port node cannot be ground")
	}
	c.ports = append(c.ports, n)
	return len(c.ports) - 1
}

// PortNode returns the node of port k.
func (c *Circuit) PortNode(k int) int { return c.ports[k] }

// ErrNoPorts is returned by port-parameter extraction on port-less circuits.
var ErrNoPorts = errors.New("circuit: no ports defined")

// stamp assembles the complex MNA matrix at frequency f (Hz). Unknowns:
// node voltages 1..numNodes-1 followed by inductor branch currents.
func (c *Circuit) stamp(f float64) *mat.CMatrix {
	nv := c.numNodes - 1
	nl := len(c.inductors)
	dim := nv + nl
	m := mat.NewCMatrix(dim, dim)
	omega := 2 * math.Pi * f

	addY := func(a, b int, y complex128) {
		if a != Ground {
			m.Set(a-1, a-1, m.At(a-1, a-1)+y)
		}
		if b != Ground {
			m.Set(b-1, b-1, m.At(b-1, b-1)+y)
		}
		if a != Ground && b != Ground {
			m.Set(a-1, b-1, m.At(a-1, b-1)-y)
			m.Set(b-1, a-1, m.At(b-1, a-1)-y)
		}
	}
	for _, r := range c.resistors {
		res := r.r + r.skin*math.Sqrt(f)
		addY(r.a, r.b, complex(1/res, 0))
	}
	for _, cp := range c.caps {
		y := complex(omega*cp.c*cp.tanD, omega*cp.c)
		addY(cp.a, cp.b, y)
	}
	for li, l := range c.inductors {
		// Branch equation row nv+li: V_a − V_b − (r + jωL)·I = 0.
		// KCL: current I leaves node a, enters node b.
		row := nv + li
		if l.a != Ground {
			m.Set(l.a-1, row, m.At(l.a-1, row)+1)
			m.Set(row, l.a-1, m.At(row, l.a-1)+1)
		}
		if l.b != Ground {
			m.Set(l.b-1, row, m.At(l.b-1, row)-1)
			m.Set(row, l.b-1, m.At(row, l.b-1)-1)
		}
		m.Set(row, row, complex(-(l.r+l.skin*math.Sqrt(f)), -omega*l.l))
	}
	// GMin leak on every node keeps DC solvable with floating capacitors.
	if c.GMin > 0 {
		for n := 0; n < nv; n++ {
			m.Set(n, n, m.At(n, n)+complex(c.GMin, 0))
		}
	}
	return m
}

// PortZ returns the open-circuit port impedance matrix Z(f) (Ω): Z[p][q] is
// the voltage at port p per unit current injected into port q with all
// other ports open.
func (c *Circuit) PortZ(f float64) (*mat.CMatrix, error) {
	p := len(c.ports)
	if p == 0 {
		return nil, ErrNoPorts
	}
	m := c.stamp(f)
	lu, err := mat.CLUFactor(m)
	if err != nil {
		return nil, fmt.Errorf("circuit: singular MNA matrix at f=%g Hz: %w", f, err)
	}
	nv := c.numNodes - 1
	dim := m.Rows
	z := mat.NewCMatrix(p, p)
	rhs := make([]complex128, dim)
	for q := 0; q < p; q++ {
		for i := range rhs {
			rhs[i] = 0
		}
		rhs[c.ports[q]-1] = 1 // 1 A into the port node
		sol := lu.SolveVec(rhs)
		for pi := 0; pi < p; pi++ {
			z.Set(pi, q, sol[c.ports[pi]-1])
		}
	}
	_ = nv
	return z, nil
}

// PortS returns the scattering matrix at frequency f normalized to the port
// resistance r0: S = (Z − r0·I)(Z + r0·I)⁻¹.
func (c *Circuit) PortS(f, r0 float64) (*mat.CMatrix, error) {
	z, err := c.PortZ(f)
	if err != nil {
		return nil, err
	}
	return ZToS(z, r0)
}

// ZToS converts an impedance matrix to scattering with uniform reference
// r0: S = (Z − r0·I)(Z + r0·I)⁻¹. The product A·B⁻¹ is evaluated via the
// transposed solve BᵀX = Aᵀ, S = Xᵀ.
func ZToS(z *mat.CMatrix, r0 float64) (*mat.CMatrix, error) {
	p := z.Rows
	num := z.Clone()
	den := z.Clone()
	for i := 0; i < p; i++ {
		num.Set(i, i, num.At(i, i)-complex(r0, 0))
		den.Set(i, i, den.At(i, i)+complex(r0, 0))
	}
	lu, err := mat.CLUFactor(den.T())
	if err != nil {
		return nil, fmt.Errorf("circuit: Z+R0 singular: %w", err)
	}
	x := lu.Solve(num.T())
	return x.T(), nil
}
