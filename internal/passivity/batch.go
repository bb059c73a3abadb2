package passivity

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/parallel"
	"repro/internal/rational"
)

// BatchOptions configures EnforceBatch.
type BatchOptions struct {
	// Enforce is the base enforcement configuration applied to every model.
	// Its Check.Cache is ignored: each model receives a private EvalCache
	// (caches memoize a single pole set). Check.Ctx cancels the whole
	// batch and Check.Progress receives every model's events, tagged with
	// the model index; the sink is called from concurrent worker
	// goroutines and must be safe for that.
	Enforce EnforceOptions
	// Workers bounds the model-level shards (0 = GOMAXPROCS, 1 = serial).
	// Results are bitwise independent of the value: each model is enforced
	// by exactly one worker with the same per-model state it would see in a
	// sequential run.
	Workers int
	// Weights supplies a per-model weight: a non-nil Weights[i] selects the
	// sensitivity-weighted cost for model i, whose cost Gramian is the
	// closed-form cascade block P^Ξ,11 = rational.CascadeGramian(model.Poles,
	// Weights[i]), computed on the worker goroutine that owns the model (the
	// block depends on the model's pole set, so it cannot be shared across
	// models). A nil entry, or a nil slice, selects the unweighted cost.
	// Each weight must be a stable SISO rational model; when non-nil the
	// slice length must equal the model count.
	Weights []*rational.Model
	// CacheFor, when non-nil, supplies the evaluation cache of model i. It
	// is called on the worker goroutine that owns the model, immediately
	// before its enforcement, and pairs with CacheDone(i) right after the
	// model completes — so a provider can lease caches per model instead
	// of pinning one per library entry for the whole batch (the Session
	// layer checks fingerprint-keyed caches out and in this way, keeping
	// its byte budget meaningful during large runs). Returning nil selects
	// a fresh private cache, the pre-Session behavior. The returned caches
	// must be distinct across concurrently running models — a cache is
	// single-goroutine state.
	CacheFor func(i int) *EvalCache
	// CacheDone returns the cache of model i after its enforcement
	// finished (successfully or not). Called on the owning worker
	// goroutine; may be nil.
	CacheDone func(i int)
}

// ErrBatchWeightCount is returned when BatchOptions.Weights is non-nil but
// not index-aligned with the model slice.
var ErrBatchWeightCount = errors.New("passivity: BatchOptions.Weights length must match the model count")

// ModelResult is the per-model outcome of a batch run.
type ModelResult struct {
	Report *EnforceReport // nil when Err is non-nil and no report was built
	Err    error
}

// BatchStats aggregates a batch run.
type BatchStats struct {
	Models          int
	Passive         int     // models passive after enforcement
	Failed          int     // models whose enforcement returned an error
	TotalIterations int     // enforcement sweeps summed over all models
	TotalSamples    int     // σ grid evaluations of the final checks
	WorstSigma      float64 // largest final σ_max across models
	// Certified counts models whose final certificate covers the whole
	// axis (Certificate.Certified); zero when certification is off.
	Certified int
	// CertifiedRescues sums the convergences across the library where the
	// fast check passed but the certification pipeline proved a residual
	// violation that re-entered the enforcement loop.
	CertifiedRescues int
}

// BatchReport is the outcome of EnforceBatch, index-aligned with the input
// models.
type BatchReport struct {
	Results []ModelResult
	Stats   BatchStats
}

// EnforceBatch enforces passivity on a library of models in place,
// sharding the models across up to Workers goroutines. Each model gets a
// private EvalCache, and every check draws its workspaces from the
// package's one pool (buffers warm up once and are reused across models
// and workers), so steady-state enforcement performs no per-frequency
// allocations. Every model is attempted regardless of other models'
// failures; per-model errors land in the result slots. The per-model reports and the final
// residues are bitwise identical to running sequential Enforce on each
// model with the same base options; with Weights set they are
// bitwise identical to the sequential sensitivity-weighted run (the
// per-model cost Gramian comes from the same closed-form
// rational.CascadeGramian in both paths).
//
// With Enforce.Certify set, each model's convergences escalate through the
// certification pipeline on the worker goroutine that owns the model —
// its eigensolves, reduced models and contour counts touch only per-model
// state, so certified batch results remain bitwise identical to
// sequential certified runs at every worker count.
//
// Inside a sharded run the per-check worker fan-out is forced serial
// (Check results are worker-count independent, so this changes nothing but
// the scheduling): model-level parallelism already saturates the cores,
// and nested fan-outs would only thrash them.
//
// Cancellation: when Enforce.Check.Ctx is cancelled the workers drain
// deterministically — no new models are claimed, in-flight models stop at their own next
// cancellation point with partial per-model reports, never-claimed models
// get ctx.Err() in their result slot, and no goroutine outlives the call.
// The aggregate stats cover whatever completed; cancelled models count as
// failed.
func EnforceBatch(models []*rational.Model, opts BatchOptions) *BatchReport {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &BatchReport{Results: make([]ModelResult, len(models))}
	fillErr := func(err error) *BatchReport {
		for i := range rep.Results {
			rep.Results[i] = ModelResult{Err: err}
		}
		rep.Stats.Models = len(models)
		rep.Stats.Failed = len(models)
		return rep
	}
	if opts.Weights != nil && len(opts.Weights) != len(models) {
		return fillErr(ErrBatchWeightCount)
	}
	ctxFailed := parallel.ForWorkerCtx(opts.Enforce.Check.Ctx, workers, len(models), func(_, i int) {
		eopts := opts.Enforce
		if opts.Weights != nil && opts.Weights[i] != nil {
			gram, err := rational.CascadeGramian(models[i].Poles, opts.Weights[i])
			if err != nil {
				rep.Results[i] = ModelResult{Err: fmt.Errorf("passivity: weighted cost Gramian of model %d: %w", i, err)}
				return
			}
			eopts.CostGramian = gram
		}
		eopts.Check.Cache = nil
		if opts.CacheFor != nil {
			eopts.Check.Cache = opts.CacheFor(i)
		}
		if eopts.Check.Cache == nil {
			eopts.Check.Cache = NewEvalCache()
		}
		eopts.Check.ProgressModel = i
		if workers > 1 {
			eopts.Check.Workers = 1
		}
		r, err := Enforce(models[i], eopts)
		if opts.CacheDone != nil {
			opts.CacheDone(i)
		}
		rep.Results[i] = ModelResult{Report: r, Err: err}
	})
	if ctxFailed != nil {
		// Models never claimed before the cancellation: mark them so the
		// report stays index-coherent (a claimed model carries either its
		// full result or its own partial report + ctx error).
		for i := range rep.Results {
			if rep.Results[i].Report == nil && rep.Results[i].Err == nil {
				rep.Results[i] = ModelResult{Err: ctxFailed}
			}
		}
	}

	st := &rep.Stats
	st.Models = len(models)
	for _, r := range rep.Results {
		if r.Err != nil {
			st.Failed++
		}
		if r.Report == nil {
			continue
		}
		st.TotalIterations += r.Report.Iterations
		st.CertifiedRescues += r.Report.CertifiedRescues
		if r.Report.Passive {
			st.Passive++
		}
		if c := r.Report.Certificate; c != nil && c.Certified {
			st.Certified++
		}
		if f := r.Report.Final; f != nil {
			st.TotalSamples += f.Samples
			if f.MaxSigma > st.WorstSigma {
				st.WorstSigma = f.MaxSigma
			}
		}
	}
	return rep
}
