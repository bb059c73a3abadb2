package passivity

import "context"

// Progress event kinds reported through CheckOptions.Progress. The check
// event fires once per completed passivity check (inside Enforce that is
// once per sweep), the iteration event after every applied perturbation,
// and the certificate-stage event after each certification-pipeline stage.
const (
	// ProgressCheck reports a completed passivity check.
	ProgressCheck = "check"
	// ProgressIteration reports a completed enforcement sweep.
	ProgressIteration = "iteration"
	// ProgressCertStage reports a completed certification-pipeline stage.
	ProgressCertStage = "certificate-stage"
)

// ProgressEvent is one observation of a long-running check, enforcement or
// certification run, delivered synchronously on the goroutine doing the
// work. Handlers must be fast and, when several enforcements share one
// sink, safe for concurrent calls from their goroutines.
type ProgressEvent struct {
	// Kind is one of ProgressCheck, ProgressIteration, ProgressCertStage.
	Kind string
	// Iteration is the 1-based enforcement sweep count (iteration events).
	Iteration int
	// MaxSigma is the worst singular value the step observed.
	MaxSigma float64
	// Passive is the step's verdict (check events).
	Passive bool
	// Stage names the certification stage (certificate-stage events).
	Stage string
	// Samples counts the σ(ω) evaluations the step spent.
	Samples int
	// Nodes counts contour-quadrature determinant evaluations
	// (certificate-stage events from the counter stage).
	Nodes int
	// Declined counts the open intervals a certificate stage declined at
	// its dimension gate (certificate-stage events).
	Declined int
}

// ProgressFunc receives progress events. A nil ProgressFunc disables
// reporting at zero cost.
type ProgressFunc func(ProgressEvent)

// emit delivers an event through the configured sink.
func (o *CheckOptions) emit(ev ProgressEvent) {
	if o.Progress != nil {
		o.Progress(ev)
	}
}

// ctxErr reports the cancellation state of an optional context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
