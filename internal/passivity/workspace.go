package passivity

import (
	"repro/internal/mat"
	"repro/internal/rational"
)

// checkWorkspace bundles the reusable buffers one worker needs to evaluate
// σ_max(S(jω)): the P×P transfer buffer, the SVD workspace (the σ_max
// kernel's Gram and tridiagonal buffers, and the Jacobi buffers that
// buildConstraints uses at violation peaks) and a basis scratch. After the
// first evaluation at a given model size every σ evaluation through the
// workspace is allocation-free. A workspace is not safe for concurrent
// use — the workspacePool hands a private one to each
// parallel.ForWorkerCtx goroutine.
type checkWorkspace struct {
	svd   mat.CSVDWorkspace
	h     *mat.CMatrix
	basis []complex128
	// adaptive is the adaptive characterizer's refinement grid; only the
	// worker-0 workspace's is used.
	adaptive adaptiveBuffers
}

// sigmaAt evaluates σ_max of S(jω) with the direct values-only kernel
// mat.MaxSingularValueInto (Gram matrix, Householder tridiagonal, Sturm
// bisection), accurate to c·P·ε·σ_max whatever the singular value gaps
// (see the mat package doc), building the basis vector into the workspace
// scratch and reusing the workspace buffers. Iterative estimators (power/
// subspace iteration) are NOT safe here: PDN scattering matrices carry
// large clusters of singular values within 1e-4 of each other right at
// the passivity boundary, where an estimator stalls short of σ_max and any
// underestimate flips the verdict.
func (ws *checkWorkspace) sigmaAt(model *rational.Model, omega float64) float64 {
	ws.basis = model.EvalBasisInto(ws.basis, omega)
	ws.h = model.EvalWithBasisInto(ws.h, ws.basis)
	return mat.MaxSingularValueInto(&ws.svd, ws.h)
}

// workspacePool is a grow-only set of per-worker workspaces. ensure must be
// called before a parallel fan-out so that the workers index a fixed slice;
// growth never happens concurrently.
type workspacePool struct {
	ws []*checkWorkspace
}

func newWorkspacePool() *workspacePool { return &workspacePool{} }

// ensure grows the pool to at least k workspaces (serial phase only).
func (p *workspacePool) ensure(k int) {
	for len(p.ws) < k {
		p.ws = append(p.ws, &checkWorkspace{})
	}
}

// get returns workspace i, growing the pool as needed (serial phase only).
func (p *workspacePool) get(i int) *checkWorkspace {
	p.ensure(i + 1)
	return p.ws[i]
}
