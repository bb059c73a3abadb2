package vecfit

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// UseDirectKernels runs every fit through the direct formulation until
// the returned function restores the fast kernels: each pole-identification
// sweep builds and fully factors one [W[Φ 1] W[−HΦ, −H]] matrix per
// response and per system (relaxed, then classical when the d̃ guard
// fires), compressing with mat.QRCompressR, and each response's residues
// come from its own mat.LeastSquares. It is the bitwise oracle of
// sigmaStep and fitResidues. Not safe alongside parallel tests.
func UseDirectKernels() (restore func()) {
	pole, res := poleStep, residueStep
	poleStep, residueStep = directSigmaStep, directResidues
	return func() { poleStep, residueStep = pole, res }
}

func directSigmaStep(points []complex128, responses [][]complex128, weights []float64, poles []complex128, opts Options) ([]float64, float64, error) {
	phi := basisMatrix(points, poles)
	relaxed := !opts.Unrelaxed
	cT, dT, err := directSigmaSolve(phi, points, responses, weights, opts, relaxed)
	if err != nil {
		return nil, 0, err
	}
	if relaxed {
		scale := 0.0
		for _, c := range cT {
			scale += math.Abs(c)
		}
		if math.Abs(dT) < 1e-10*(1+scale) {
			cT, dT, err = directSigmaSolve(phi, points, responses, weights, opts, false)
			if err != nil {
				return nil, 0, err
			}
		}
	}
	return cT, dT, nil
}

func directSigmaSolve(phi *mat.CMatrix, points []complex128, responses [][]complex128, weights []float64, opts Options, relaxed bool) ([]float64, float64, error) {
	k := len(points)
	n := phi.Cols
	nr := len(responses)
	ncr := n
	if !opts.SkipD {
		ncr++
	}
	nct := n
	if relaxed {
		nct++
	}
	width := ncr + nct + 1
	type block struct {
		g   *mat.Matrix
		rhs []float64
	}
	blocks := make([]block, nr)
	err := parallel.ForErr(fanout(opts.Sequential), nr, func(r int) error {
		h := responses[r]
		m := mat.NewMatrix(2*k, width)
		for ki := 0; ki < k; ki++ {
			w := weights[ki]
			reRow := m.Row(2 * ki)
			imRow := m.Row(2*ki + 1)
			col := 0
			for j := 0; j < n; j++ {
				v := phi.At(ki, j)
				reRow[col] = w * real(v)
				imRow[col] = w * imag(v)
				col++
			}
			if !opts.SkipD {
				reRow[col] = w
				imRow[col] = 0
				col++
			}
			for j := 0; j < n; j++ {
				v := -h[ki] * phi.At(ki, j)
				reRow[col] = w * real(v)
				imRow[col] = w * imag(v)
				col++
			}
			if relaxed {
				reRow[col] = -w * real(h[ki])
				imRow[col] = -w * imag(h[ki])
				col++
			}
			if !relaxed {
				reRow[col] = w * real(h[ki])
				imRow[col] = w * imag(h[ki])
			}
		}
		s := mat.QRCompressR(m, ncr)
		g := mat.NewMatrix(nct, nct)
		rhs := make([]float64, nct)
		for i := 0; i < nct; i++ {
			for j := 0; j < nct; j++ {
				g.Set(i, j, s.At(i, j))
			}
			rhs[i] = s.At(i, nct)
		}
		blocks[r] = block{g: g, rhs: rhs}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	rows := nr * nct
	if relaxed {
		rows++
	}
	big := mat.NewMatrix(rows, nct)
	rhs := make([]float64, rows)
	for r := 0; r < nr; r++ {
		for i := 0; i < nct; i++ {
			copy(big.Row(r*nct+i), blocks[r].g.Row(i))
			rhs[r*nct+i] = blocks[r].rhs[i]
		}
	}
	if relaxed {
		scale := 0.0
		for r := 0; r < nr; r++ {
			for ki := 0; ki < k; ki++ {
				v := weights[ki] * cmplx.Abs(responses[r][ki])
				scale += v * v
			}
		}
		scale = math.Sqrt(scale) / float64(k)
		row := big.Row(rows - 1)
		for j := 0; j < n; j++ {
			sum := 0.0
			for ki := 0; ki < k; ki++ {
				sum += real(phi.At(ki, j))
			}
			row[j] = scale * sum
		}
		row[n] = scale * float64(k)
		rhs[rows-1] = scale * float64(k)
	}
	sol, err := mat.LeastSquares(big, rhs)
	if err != nil {
		return nil, 0, fmt.Errorf("vecfit: sigma LS failed: %w", err)
	}
	cT := sol[:n]
	dT := 1.0
	if relaxed {
		dT = sol[n]
	}
	return cT, dT, nil
}

func directResidues(points, poles []complex128, responses [][]complex128, weights []float64, skipD, sequential bool) ([][]float64, []float64, error) {
	phi := basisMatrix(points, poles)
	cMat := make([][]float64, len(responses))
	dVec := make([]float64, len(responses))
	err := parallel.ForErr(fanout(sequential), len(responses), func(r int) error {
		c, d, err := directResidueLS(phi, responses[r], weights, skipD)
		if err != nil {
			return fmt.Errorf("response %d: %w", r, err)
		}
		cMat[r], dVec[r] = c, d
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return cMat, dVec, nil
}

func directResidueLS(phi *mat.CMatrix, h []complex128, weights []float64, skipD bool) ([]float64, float64, error) {
	k := phi.Rows
	n := phi.Cols
	nc := n
	if !skipD {
		nc++
	}
	m := mat.NewMatrix(2*k, nc)
	rhs := make([]float64, 2*k)
	for ki := 0; ki < k; ki++ {
		w := weights[ki]
		reRow := m.Row(2 * ki)
		imRow := m.Row(2*ki + 1)
		for j := 0; j < n; j++ {
			v := phi.At(ki, j)
			reRow[j] = w * real(v)
			imRow[j] = w * imag(v)
		}
		if !skipD {
			reRow[n] = w
			imRow[n] = 0
		}
		rhs[2*ki] = w * real(h[ki])
		rhs[2*ki+1] = w * imag(h[ki])
	}
	sol, err := mat.LeastSquares(m, rhs)
	if err != nil {
		return nil, 0, err
	}
	d := 0.0
	if !skipD {
		d = sol[n]
	}
	return sol[:n], d, nil
}
