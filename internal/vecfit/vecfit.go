package vecfit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"runtime"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/rational"
)

// Options configures a Vector Fitting run.
type Options struct {
	// NumPoles is the model order n (state dimension of the basis). Complex
	// starting poles are used; an odd order adds one real pole.
	NumPoles int
	// Iterations bounds the pole-relocation sweeps (default 10).
	Iterations int
	// Weights holds one least-squares weight per frequency sample (optional;
	// all ones when nil). This is where the sensitivity weighting w_k = Ξ_k
	// of the paper's eq. (6) enters.
	Weights []float64
	// InitPoles overrides the automatic starting poles.
	InitPoles []complex128
	// Unrelaxed disables the relaxed nontriviality constraint (Gustavsen
	// 2006) and uses the classical σ(s) = 1 + Σc̃φ formulation.
	Unrelaxed bool
	// SkipD omits the constant (direct-coupling) term from the fit.
	SkipD bool
	// FlipMode selects the pole-admissibility reflection (default FlipLHP).
	FlipMode FlipMode
	// Sequential disables the per-response goroutine pool (for tests).
	Sequential bool
	// ConstrainD, when positive, caps the largest singular value of the
	// fitted direct-coupling matrix D at this value (e.g. 0.999 for
	// scattering models that must be asymptotically passive). If the
	// unconstrained D exceeds the cap it is clipped by singular-value
	// truncation and the residues are re-identified with D held fixed, so
	// the compensation is absorbed by the frequency-dependent part of the
	// model (where downstream weighting can shape it) instead of leaving a
	// frequency-flat passivity violation.
	ConstrainD float64
}

// Report captures convergence diagnostics of a fit.
type Report struct {
	Iterations  int            // pole-relocation sweeps actually run
	FinalPoles  []complex128   // canonical pair order
	PoleHistory [][]complex128 // poles after each sweep
	RMSErr      float64        // weighted RMS fit error over all entries/samples
	MaxAbsErr   float64        // worst-case |H_fit − H_data| over all entries/samples
	DTilde      []float64      // relaxation d̃ per sweep (diagnostic)
	// DConstrained reports that the ConstrainD cap clipped the fitted D.
	DConstrained bool
}

// ErrBadInput reports inconsistent sample dimensions.
var ErrBadInput = errors.New("vecfit: inconsistent input dimensions")

// Fit runs Vector Fitting on matrix samples H[k] (all P×P) at angular
// frequencies omega[k] (rad/s), returning a stable common-pole model with
// real residue structure. The fit minimizes Σ_k w_k²‖H(jω_k) − Ĥ_k‖_F²,
// i.e. the weighted metric (6) of the paper.
func Fit(omega []float64, samples []*mat.CMatrix, opts Options) (*rational.Model, *Report, error) {
	k := len(omega)
	if k == 0 || len(samples) != k {
		return nil, nil, ErrBadInput
	}
	p := samples[0].Rows
	for _, s := range samples {
		if s.Rows != p || s.Cols != p {
			return nil, nil, ErrBadInput
		}
	}
	points := make([]complex128, k)
	for i, w := range omega {
		points[i] = complex(0, w)
	}
	// Flatten responses row-major: r = i*P + j.
	responses := make([][]complex128, p*p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			row := make([]complex128, k)
			for ki := 0; ki < k; ki++ {
				row[ki] = samples[ki].At(i, j)
			}
			responses[i*p+j] = row
		}
	}
	if opts.InitPoles == nil {
		lo, hi := omegaRange(omega)
		opts.InitPoles = InitialPolesLog(lo, hi, opts.NumPoles)
	}
	poles, cMat, dVec, rep, err := fitCore(points, responses, opts)
	if err != nil {
		return nil, nil, err
	}
	if opts.ConstrainD > 0 {
		weights := opts.Weights
		if weights == nil {
			weights = make([]float64, k)
			for i := range weights {
				weights[i] = 1
			}
		}
		changed, err := constrainD(points, responses, weights, poles, cMat, dVec, p, opts.ConstrainD, opts.Sequential)
		if err != nil {
			return nil, nil, err
		}
		rep.DConstrained = changed
	}
	model, err := assembleModel(p, poles, cMat, dVec)
	if err != nil {
		return nil, nil, err
	}
	fillErrorStats(rep, model, omega, samples, opts.Weights)
	return model, rep, nil
}

func omegaRange(omega []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), 0
	for _, w := range omega {
		if w > 0 && w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	if math.IsInf(lo, 1) {
		lo = 1
	}
	if hi <= 0 {
		hi = lo * 10
	}
	return lo, hi
}

// poleTol is the relative pole movement below which pole relocation stops
// early.
const poleTol = 1e-8

// fitCore is the sample-point-domain engine shared by Fit (points = jω) and
// magnitude VF (points = u real). It returns the final poles, the per-
// response residue coordinate vectors (len n each) and constant terms.
func fitCore(points []complex128, responses [][]complex128, opts Options) ([]complex128, [][]float64, []float64, *Report, error) {
	k := len(points)
	if opts.NumPoles <= 0 {
		return nil, nil, nil, nil, fmt.Errorf("vecfit: NumPoles must be positive, got %d", opts.NumPoles)
	}
	if opts.NumPoles >= k {
		return nil, nil, nil, nil, fmt.Errorf("vecfit: NumPoles=%d requires more than %d samples", opts.NumPoles, k)
	}
	iters := opts.Iterations
	if iters <= 0 {
		iters = 10
	}
	weights := opts.Weights
	if weights == nil {
		weights = make([]float64, k)
		for i := range weights {
			weights[i] = 1
		}
	} else if len(weights) != k {
		return nil, nil, nil, nil, ErrBadInput
	}
	poles, _, err := rational.SortPairs(opts.InitPoles, 1e-12)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("vecfit: bad initial poles: %w", err)
	}
	poles = flipPoles(poles, opts.FlipMode)

	rep := &Report{}
	for it := 0; it < iters; it++ {
		cTilde, dTilde, err := poleStep(points, responses, weights, poles, opts)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("vecfit: sweep %d: %w", it, err)
		}
		newPoles, err := relocatePoles(poles, cTilde, dTilde)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("vecfit: pole relocation sweep %d: %w", it, err)
		}
		newPoles = flipPoles(newPoles, opts.FlipMode)
		move := poleMovement(poles, newPoles)
		poles = newPoles
		rep.Iterations = it + 1
		rep.DTilde = append(rep.DTilde, dTilde)
		rep.PoleHistory = append(rep.PoleHistory, append([]complex128(nil), poles...))
		if move < poleTol {
			break
		}
	}
	rep.FinalPoles = append([]complex128(nil), poles...)

	// Residue identification with the converged poles.
	cMat, dVec, err := residueStep(points, poles, responses, weights, opts.SkipD, opts.Sequential)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("vecfit: residue identification failed for %w", err)
	}
	return poles, cMat, dVec, rep, nil
}

// The two least-squares stages of a fit: one pole-identification sweep and
// the residue identification with fixed poles. The bitwise oracle test
// swaps in the direct formulation (one full QR per response and system).
var (
	poleStep    = sigmaStep
	residueStep = fitResidues
)

// basisBlock builds the weighted basis block W[Φ 1] (WΦ under skipD) of a
// pole set: two real rows per sample, re and im. It is the residue part of
// every response's pole-identification system and the whole matrix of its
// residue least squares, identical across responses.
func basisBlock(phi *mat.CMatrix, weights []float64, skipD bool) *mat.Matrix {
	k, n := phi.Rows, phi.Cols
	nc := n
	if !skipD {
		nc++
	}
	m := mat.NewMatrix(2*k, nc)
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
	}
	return m
}

// sigmaWorkspace is one worker's scratch for a sweep's compressions: the
// 2k×(n+1) block W[−HΦ, −H] of the response in hand, column-major.
type sigmaWorkspace struct {
	block mat.ColMajor
}

// sigmaStep solves one sweep's pole-identification least squares for the
// sigma-function coefficients (c̃, d̃) by fast VF compression (Deschrijver
// et al. 2008). Response r's relaxed system is [A₁ B_r] with the shared
// block A₁ = W[Φ 1] and B_r = W[−H_rΦ, −H_r]. A₁ is factored once, before
// the fan-out; its reflectors reduce each B_r, and a QR of B_r's trailing
// rows yields the (n+1)×(n+1) block R_r that carries response r's
// information about (c̃, d̃). Because Householder reflector j depends only
// on column j, this is bit for bit the trailing R of a full QR of
// [A₁ B_r]. B_r is built column-major, the layout of the QR kernels.
//
// The unrelaxed system [A₁ W(−H_rΦ) | W H_r] has the same leading columns
// and a right-hand side that is exactly the negated d̃ column, so its
// compression is R_r[:n, :n] with right-hand side −R_r[:n, n]: the
// classical fallback reuses the relaxed compressions.
func sigmaStep(points []complex128, responses [][]complex128, weights []float64, poles []complex128, opts Options) ([]float64, float64, error) {
	k := len(points)
	n := len(poles)
	nr := len(responses)
	phi := basisMatrix(points, poles)
	shared := mat.QRFactor(basisBlock(phi, weights, opts.SkipD))
	ncr := n // per-response residue unknowns
	if !opts.SkipD {
		ncr++
	}
	nct := n + 1 // sigma unknowns c̃ and d̃

	// Stacked relaxed system: R_r in rows r·nct.., the nontriviality row
	// last. The right-hand side is zero but for that row.
	big := mat.NewMatrix(nr*nct+1, nct)
	workers := fanout(opts.Sequential)
	wss := make([]sigmaWorkspace, workers)
	parallel.ForWorkerCtx(context.TODO(), workers, nr, func(w, r int) {
		ws := &wss[w]
		if ws.block.Data == nil {
			ws.block = mat.NewColMajor(2*k, nct)
		}
		h := responses[r]
		for j := 0; j < n; j++ {
			col := ws.block.Col(j)
			for ki := 0; ki < k; ki++ {
				w := weights[ki]
				v := -h[ki] * phi.At(ki, j)
				col[2*ki] = w * real(v)
				col[2*ki+1] = w * imag(v)
			}
		}
		col := ws.block.Col(n)
		for ki := 0; ki < k; ki++ {
			w := weights[ki]
			col[2*ki] = -w * real(h[ki])
			col[2*ki+1] = -w * imag(h[ki])
		}
		shared.ApplyQTMatrix(ws.block)
		tail := ws.block.RowsFrom(ncr)
		mat.QRTriangularize(tail)
		for i := 0; i < nct; i++ {
			row := big.Row(r*nct + i)
			for j := i; j < nct; j++ {
				row[j] = tail.Col(j)[i]
			}
		}
	})

	if !opts.Unrelaxed {
		cT, dT, err := solveRelaxed(big, phi, responses, weights)
		if err != nil {
			return nil, 0, err
		}
		// Guard against a vanishing relaxation coefficient (degenerate σ):
		// redo the sweep with the classical σ = 1 + Σ c̃φ formulation.
		//
		// Known flaw, kept as is: the guard compares the dimensionless d̃
		// against Σ|c̃|, whose entries scale with the pole magnitudes
		// (rad/s, ~1e7–1e8 for GHz-range PDN data), so it fires on most
		// such sweeps and the classical solution replaces the relaxed
		// one. A scale-free test would change every fitted model and the
		// Fig. 1–3 findings.
		scale := 0.0
		for _, c := range cT {
			scale += math.Abs(c)
		}
		if math.Abs(dT) >= 1e-10*(1+scale) {
			return cT, dT, nil
		}
	}

	// Classical system: the leading n×n block of each R_r, right-hand
	// side the negated d̃ column.
	sub := mat.NewMatrix(nr*n, n)
	rhs := make([]float64, nr*n)
	for r := 0; r < nr; r++ {
		for i := 0; i < n; i++ {
			row := big.Row(r*nct + i)
			copy(sub.Row(r*n+i), row[:n])
			rhs[r*n+i] = -row[n]
		}
	}
	cT, err := mat.LeastSquares(sub, rhs)
	if err != nil {
		return nil, 0, fmt.Errorf("vecfit: sigma LS failed: %w", err)
	}
	return cT, 1, nil
}

// solveRelaxed completes the stacked relaxed system with the nontriviality
// row and solves it for (c̃, d̃).
func solveRelaxed(big *mat.Matrix, phi *mat.CMatrix, responses [][]complex128, weights []float64) ([]float64, float64, error) {
	k, n := phi.Rows, phi.Cols
	rows := big.Rows
	rhs := make([]float64, rows)
	// Nontriviality row: Σ_k Re{σ(s_k)} = K, scaled to the data norm so it
	// neither dominates nor vanishes.
	scale := 0.0
	for _, h := range responses {
		for ki := 0; ki < k; ki++ {
			v := weights[ki] * cmplx.Abs(h[ki])
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
	sol, err := mat.LeastSquares(big, rhs)
	if err != nil {
		return nil, 0, fmt.Errorf("vecfit: sigma LS failed: %w", err)
	}
	return sol[:n], sol[n], nil
}

// fitResidues identifies each response's residue coordinates (and constant
// term unless skipD) for fixed poles. The least-squares matrix W[Φ 1] is
// common to all responses, so it is factored once and each response costs
// one SolveVec.
func fitResidues(points, poles []complex128, responses [][]complex128, weights []float64, skipD, sequential bool) ([][]float64, []float64, error) {
	k := len(points)
	n := len(poles)
	f := mat.QRFactor(basisBlock(basisMatrix(points, poles), weights, skipD))
	cMat := make([][]float64, len(responses))
	dVec := make([]float64, len(responses))
	err := parallel.ForErr(fanout(sequential), len(responses), func(r int) error {
		h := responses[r]
		rhs := make([]float64, 2*k)
		for ki := 0; ki < k; ki++ {
			rhs[2*ki] = weights[ki] * real(h[ki])
			rhs[2*ki+1] = weights[ki] * imag(h[ki])
		}
		sol, err := f.SolveVec(rhs)
		if err != nil {
			return fmt.Errorf("response %d: %w", r, err)
		}
		cMat[r] = sol[:n]
		if !skipD {
			dVec[r] = sol[n]
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return cMat, dVec, nil
}

// assembleModel packs per-response residue coordinates into a matrix model.
func assembleModel(p int, poles []complex128, cMat [][]float64, dVec []float64) (*rational.Model, error) {
	n := len(poles)
	residues := make([]*mat.CMatrix, n)
	for m := 0; m < n; m++ {
		residues[m] = mat.NewCMatrix(p, p)
	}
	d := mat.NewMatrix(p, p)
	model, err := rational.New(poles, residues, d)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			r := i*p + j
			model.SetCVector(i, j, cMat[r])
			d.Set(i, j, dVec[r])
		}
	}
	return model, nil
}

func fillErrorStats(rep *Report, model *rational.Model, omega []float64, samples []*mat.CMatrix, weights []float64) {
	p := model.Ports()
	var sum, wsum float64
	maxErr := 0.0
	for ki, w := range omega {
		wk := 1.0
		if weights != nil {
			wk = weights[ki]
		}
		h := model.Eval(w)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				e := cmplx.Abs(h.At(i, j) - samples[ki].At(i, j))
				if e > maxErr {
					maxErr = e
				}
				sum += wk * wk * e * e
				wsum += wk * wk
			}
		}
	}
	if wsum > 0 {
		rep.RMSErr = math.Sqrt(sum / wsum)
	}
	rep.MaxAbsErr = maxErr
}

func poleMovement(old, cur []complex128) float64 {
	if len(old) != len(cur) {
		return math.Inf(1)
	}
	mx := 0.0
	for i := range old {
		d := cmplx.Abs(cur[i]-old[i]) / (1 + cmplx.Abs(old[i]))
		if d > mx {
			mx = d
		}
	}
	return mx
}

// fanout maps Options.Sequential to a worker count.
func fanout(sequential bool) int {
	if sequential {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// constrainD enforces σmax(D) ≤ cap on the assembled per-response constant
// terms by singular-value clipping followed by residue re-identification
// with the clipped D fixed. Returns true if anything changed.
func constrainD(points []complex128, responses [][]complex128, weights []float64,
	poles []complex128, cMat [][]float64, dVec []float64, p int, cap float64, sequential bool) (bool, error) {
	d := mat.NewMatrix(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			d.Set(i, j, dVec[i*p+j])
		}
	}
	svd := mat.SVDecompose(d)
	if len(svd.S) == 0 || svd.S[0] <= cap {
		return false, nil
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			s := 0.0
			for k := 0; k < len(svd.S); k++ {
				sv := svd.S[k]
				if sv > cap {
					sv = cap
				}
				s += svd.U.At(i, k) * sv * svd.V.At(j, k)
			}
			dVec[i*p+j] = s
		}
	}
	adj := make([][]complex128, len(responses))
	for r, h := range responses {
		adj[r] = make([]complex128, len(h))
		for ki := range h {
			adj[r][ki] = h[ki] - complex(dVec[r], 0)
		}
	}
	c, _, err := residueStep(points, poles, adj, weights, true, sequential)
	if err != nil {
		return false, err
	}
	copy(cMat, c)
	return true, nil
}
