// Package synthpdn generates synthetic multiport power-distribution-network
// structures: board, package and die power planes modeled as RLC unit-cell
// grids, stitched by BGA balls and die bumps. It substitutes for the
// proprietary Intel package data and commercial field solver of the paper's
// §IV testcase: the generated networks expose the same port mix (die power
// ports, board decap ports, one VRM port, unused open ports), the same
// frequency range, and the same qualitative impedance/sensitivity behavior
// that makes unweighted passivity enforcement destroy model accuracy.
package synthpdn

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/pdn"
)

// PortRole labels what each port of the generated network connects to.
type PortRole int

// Port roles in declaration order (die block ports first, then board decap
// ports, one VRM port, then intentionally unused open ports).
const (
	RoleDie PortRole = iota
	RoleDecap
	RoleVRM
	RoleOpen
)

// String implements fmt.Stringer.
func (r PortRole) String() string {
	switch r {
	case RoleDie:
		return "die"
	case RoleDecap:
		return "decap"
	case RoleVRM:
		return "vrm"
	case RoleOpen:
		return "open"
	}
	return "unknown"
}

// GridSpec sizes one power plane grid and its unit-cell electrical values.
type GridSpec struct {
	NX, NY   int     // node grid
	CellL    float64 // series inductance per cell edge (H)
	CellR    float64 // series resistance per cell edge (Ω)
	CellSkin float64 // skin-effect coefficient (Ω/√Hz)
	NodeC    float64 // shunt plane capacitance per node (F)
	TanD     float64 // dielectric loss tangent of the shunt capacitance
}

// Config parameterizes the synthetic PDN.
type Config struct {
	Board GridSpec
	Pkg   GridSpec
	Die   GridSpec

	NumBalls int     // board↔package connections
	BallL    float64 // per ball
	BallR    float64
	NumBumps int // package↔die connections
	BumpL    float64
	BumpR    float64

	NumDiePorts   int
	NumDecapPorts int
	NumOpenPorts  int

	// Jitter adds deterministic ±Jitter relative spread to cell values so
	// the structure is not perfectly uniform (Seed controls the stream).
	Jitter float64
	Seed   int64

	// Nominal termination values (paper §IV): decap C/ESR/ESL triples
	// cycled over the decap ports, die series-RC blocks, VRM model.
	DecapModels []pdn.SeriesRLC
	DieModel    pdn.SeriesRLC
	VRMShort    bool          // true: ideal short (paper); false: use VRMModel
	VRMModel    pdn.SeriesRLC // used when VRMShort is false
}

// Paper45 mirrors the paper's testcase dimensions: P = 45 ports of which
// Pa = 24 die, Pc = 12 decap, Pv = 1 VRM and Po = 8 open.
func Paper45() Config {
	// Loss levels are tuned toward the paper's testcase character: smooth,
	// well-damped responses that a low-order (n = 12) rational model fits
	// with small error, leaving only shallow passivity violations for the
	// enforcement stage (their Fig. 4 shows σ peaks of ~1.002). Skin-effect
	// and dielectric-loss terms keep the plane resonance Q moderate.
	// The die grid carries only its metal parasitics (tiny node C): the
	// actual die decoupling capacitance belongs to the *termination* models
	// of the active blocks, exactly as in the paper's setup. This makes the
	// unloaded network impedance rise inductively into the GHz range, so
	// that under nominal loading the die-block admittance dominates there —
	// which is what collapses the high-frequency sensitivity Ξ and gives
	// the strong low/high-frequency weighting contrast of their Fig. 3.
	return Config{
		Board: GridSpec{NX: 8, NY: 6, CellL: 0.8e-9, CellR: 4e-3, CellSkin: 4e-6, NodeC: 30e-12, TanD: 0.05},
		Pkg:   GridSpec{NX: 5, NY: 4, CellL: 0.15e-9, CellR: 8e-3, CellSkin: 2.5e-6, NodeC: 8e-12, TanD: 0.04},
		Die:   GridSpec{NX: 6, NY: 4, CellL: 15e-12, CellR: 40e-3, CellSkin: 1e-6, NodeC: 4e-12, TanD: 0.03},

		NumBalls: 10, BallL: 0.25e-9, BallR: 8e-3,
		NumBumps: 12, BumpL: 40e-12, BumpR: 8e-3,

		NumDiePorts:   24,
		NumDecapPorts: 12,
		NumOpenPorts:  8,

		Jitter: 0.1,
		Seed:   2014,

		DecapModels: []pdn.SeriesRLC{
			pdn.Decap(100e-9, 20e-3, 0.6e-9),
			pdn.Decap(1e-6, 10e-3, 0.8e-9),
			pdn.Decap(10e-6, 5e-3, 1.2e-9),
		},
		DieModel: pdn.DieRC(0.08, 40e-9),
		VRMShort: true,
		VRMModel: pdn.VRM(0.8e-3, 8e-9),
	}
}

// Small is a reduced 8-port variant (4 die, 2 decap, 1 VRM, 1 open) for
// tests and examples.
func Small() Config {
	cfg := Paper45()
	cfg.Board.NX, cfg.Board.NY = 4, 3
	cfg.Pkg.NX, cfg.Pkg.NY = 3, 2
	cfg.Die.NX, cfg.Die.NY = 2, 2
	cfg.NumBalls, cfg.NumBumps = 4, 4
	cfg.NumDiePorts = 4
	cfg.NumDecapPorts = 2
	cfg.NumOpenPorts = 1
	return cfg
}

// PDN is a generated structure: the passive network plus port metadata and
// the nominal termination network.
type PDN struct {
	Circuit *circuit.Circuit
	Roles   []PortRole
	Config  Config
}

// Ports returns the total port count.
func (p *PDN) Ports() int { return len(p.Roles) }

// PortsWithRole lists port indices carrying a role.
func (p *PDN) PortsWithRole(r PortRole) []int {
	var out []int
	for i, role := range p.Roles {
		if role == r {
			out = append(out, i)
		}
	}
	return out
}

// Build constructs the synthetic PDN circuit.
func Build(cfg Config) (*PDN, error) {
	if cfg.NumDiePorts < 1 || cfg.NumDecapPorts < 1 {
		return nil, fmt.Errorf("synthpdn: need at least one die and one decap port")
	}
	if cfg.NumDiePorts > cfg.Die.NX*cfg.Die.NY {
		return nil, fmt.Errorf("synthpdn: %d die ports exceed %d die nodes", cfg.NumDiePorts, cfg.Die.NX*cfg.Die.NY)
	}
	if cfg.NumDecapPorts+1 > cfg.Board.NX*cfg.Board.NY {
		return nil, fmt.Errorf("synthpdn: board grid too small for decap+VRM ports")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	jit := func(v float64) float64 {
		if cfg.Jitter <= 0 {
			return v
		}
		return v * (1 + cfg.Jitter*(2*rng.Float64()-1))
	}
	c := circuit.New()

	board := buildGrid(c, cfg.Board, jit)
	pkg := buildGrid(c, cfg.Pkg, jit)
	die := buildGrid(c, cfg.Die, jit)

	// BGA balls: distribute between board-center region and package nodes.
	connectGrids(c, board, cfg.Board, pkg, cfg.Pkg, cfg.NumBalls, cfg.BallL, cfg.BallR, jit)
	// Die bumps: package to die.
	connectGrids(c, pkg, cfg.Pkg, die, cfg.Die, cfg.NumBumps, cfg.BumpL, cfg.BumpR, jit)

	pdnNet := &PDN{Circuit: c, Config: cfg}

	// Die ports: spread across the die grid.
	for _, n := range spread(die, cfg.NumDiePorts) {
		c.DefinePort(n)
		pdnNet.Roles = append(pdnNet.Roles, RoleDie)
	}
	// Decap ports: spread across the board, avoiding the VRM corner.
	decapNodes := spread(board[1:], cfg.NumDecapPorts)
	for _, n := range decapNodes {
		c.DefinePort(n)
		pdnNet.Roles = append(pdnNet.Roles, RoleDecap)
	}
	// VRM port at the board corner node.
	c.DefinePort(board[0])
	pdnNet.Roles = append(pdnNet.Roles, RoleVRM)
	// Open ports: alternate between package and board leftovers.
	openPool := append(append([]int{}, pkg...), board...)
	seen := map[int]bool{board[0]: true}
	for _, n := range decapNodes {
		seen[n] = true
	}
	added := 0
	for _, n := range openPool {
		if added >= cfg.NumOpenPorts {
			break
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		c.DefinePort(n)
		pdnNet.Roles = append(pdnNet.Roles, RoleOpen)
		added++
	}
	if added < cfg.NumOpenPorts {
		return nil, fmt.Errorf("synthpdn: could not place %d open ports", cfg.NumOpenPorts)
	}
	return pdnNet, nil
}

// buildGrid creates an NX×NY plane of nodes with series L+R cell edges and
// shunt C at each node, returning the node list (row-major).
func buildGrid(c *circuit.Circuit, g GridSpec, jit func(float64) float64) []int {
	nodes := make([]int, g.NX*g.NY)
	for i := range nodes {
		nodes[i] = c.Node()
	}
	at := func(x, y int) int { return nodes[y*g.NX+x] }
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			if x+1 < g.NX {
				c.AddSkinInductor(at(x, y), at(x+1, y), jit(g.CellL), jit(g.CellR), g.CellSkin)
			}
			if y+1 < g.NY {
				c.AddSkinInductor(at(x, y), at(x, y+1), jit(g.CellL), jit(g.CellR), g.CellSkin)
			}
			c.AddLossyCapacitor(at(x, y), circuit.Ground, jit(g.NodeC), g.TanD)
		}
	}
	return nodes
}

// connectGrids stitches two plane grids with n series-RL links spread over
// both node sets.
func connectGrids(c *circuit.Circuit, a []int, ga GridSpec, b []int, gb GridSpec, n int, l, r float64, jit func(float64) float64) {
	an := spread(a, n)
	bn := spread(b, n)
	for i := 0; i < n; i++ {
		c.AddLossyInductor(an[i], bn[i], jit(l), jit(r))
	}
}

// spread picks n approximately evenly spaced entries from nodes.
func spread(nodes []int, n int) []int {
	if n >= len(nodes) {
		out := make([]int, len(nodes))
		copy(out, nodes)
		for len(out) < n {
			out = append(out, nodes[len(out)%len(nodes)])
		}
		return out
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		idx := i * (len(nodes) - 1) / max(n-1, 1)
		out[i] = nodes[idx]
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NominalLoad assembles the paper's nominal termination network for the
// generated PDN: decap models cycled over decap ports, die RC blocks with
// uniform 1 A total excitation, short (or RL) VRM, opens elsewhere.
// Z_PDN is observed at the first die port.
func (p *PDN) NominalLoad() *pdn.Load {
	terms := make([]pdn.Termination, p.Ports())
	decapIdx := 0
	for i, role := range p.Roles {
		switch role {
		case RoleDie:
			terms[i] = p.Config.DieModel
		case RoleDecap:
			models := p.Config.DecapModels
			terms[i] = models[decapIdx%len(models)]
			decapIdx++
		case RoleVRM:
			if p.Config.VRMShort {
				terms[i] = pdn.Short{}
			} else {
				terms[i] = p.Config.VRMModel
			}
		default:
			terms[i] = pdn.Open{}
		}
	}
	diePorts := p.PortsWithRole(RoleDie)
	return &pdn.Load{
		Terms:   terms,
		J:       pdn.UniformDieExcitation(p.Ports(), diePorts),
		ObsPort: diePorts[0],
	}
}
