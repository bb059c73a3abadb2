package circuit

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// Solve performs a driven AC analysis at frequency f (Hz) with the given
// current injections (node index → phasor amps flowing into the node) and
// returns the node voltage phasors indexed by node (entry 0, ground, is 0).
func (c *Circuit) Solve(f float64, currents map[int]complex128) ([]complex128, error) {
	m := c.stamp(f)
	lu, err := mat.CLUFactor(m)
	if err != nil {
		return nil, fmt.Errorf("circuit: singular MNA matrix at f=%g Hz: %w", f, err)
	}
	rhs := make([]complex128, m.Rows)
	for node, amps := range currents {
		c.checkNode(node)
		if node == Ground {
			continue
		}
		rhs[node-1] += amps
	}
	sol := lu.SolveVec(rhs)
	v := make([]complex128, c.numNodes)
	for n := 1; n < c.numNodes; n++ {
		v[n] = sol[n-1]
	}
	return v, nil
}

// AddSeriesRLC wires a series R-L-C branch between nodes a and b, creating
// the internal nodes. Any of r, l may be zero (the element is omitted);
// c must be positive if used, or pass c ≤ 0 to omit the capacitor (pure RL
// branch). At least one element must be present.
func (c *Circuit) AddSeriesRLC(a, b int, r, l, cap float64) {
	type elem struct {
		kind byte
		val  float64
	}
	var chain []elem
	if r > 0 {
		chain = append(chain, elem{'R', r})
	}
	if l > 0 {
		chain = append(chain, elem{'L', l})
	}
	if cap > 0 {
		chain = append(chain, elem{'C', cap})
	}
	if len(chain) == 0 {
		panic("circuit: empty series branch")
	}
	prev := a
	for i, e := range chain {
		next := b
		if i < len(chain)-1 {
			next = c.Node()
		}
		switch e.kind {
		case 'R':
			c.AddResistor(prev, next, e.val)
		case 'L':
			c.AddInductor(prev, next, e.val)
		case 'C':
			c.AddCapacitor(prev, next, e.val)
		}
		prev = next
	}
}

// SweepS computes the scattering matrix at every frequency (Hz) in
// parallel, normalized to r0.
func (c *Circuit) SweepS(freqs []float64, r0 float64) ([]*mat.CMatrix, error) {
	out := make([]*mat.CMatrix, len(freqs))
	err := parallel.ForErr(0, len(freqs), func(i int) error {
		s, err := c.PortS(freqs[i], r0)
		out[i] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
