package passivity

import (
	"sync"

	"repro/internal/mat"
	"repro/internal/rational"
)

// checkWorkspace bundles the reusable buffers one worker needs to evaluate
// σ_max(S(jω)): the P×P transfer buffer, the SVD workspace (the σ_max
// kernel's Gram and tridiagonal buffers, and the Jacobi buffers that
// buildConstraints uses at violation peaks) and a basis scratch. After the
// first evaluation at a given model size every σ evaluation through the
// workspace is allocation-free. A workspace is not safe for concurrent
// use: its holder owns it from getWorkspace until it puts it back.
//
// Every field is scratch that is written before it is read — svd and h
// are resized and overwritten by each kernel call, basis by
// EvalBasisInto, and the adaptive grid by setGrid and merge — so any
// workspace serves any model, including one a panicking check abandoned
// half-written.
type checkWorkspace struct {
	svd   mat.CSVDWorkspace
	h     *mat.CMatrix
	basis []complex128
	// adaptive is the adaptive characterizer's refinement grid; only the
	// serial-phase workspace's is used.
	adaptive adaptiveBuffers
}

// workspaces is the one pool of check scratch. Check, Pipeline.Run and
// buildConstraints each take a workspace for their serial phase and pass
// it down; sigmaBatch takes one more per extra fan-out worker. Warm
// buffers thereby survive across checks, enforcement sweeps, models and
// sessions.
var workspaces = sync.Pool{New: func() any { return new(checkWorkspace) }}

func getWorkspace() *checkWorkspace { return workspaces.Get().(*checkWorkspace) }

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
