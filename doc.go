// Package repro is a Go implementation of sensitivity-weighted passivity
// enforcement for power-integrity macromodels, reproducing
//
//	A. Ubolli, S. Grivet-Talocia, M. Bandinu, A. Chinea,
//	"Sensitivity-based weighting for passivity enforcement of linear
//	macromodels in power integrity applications", DATE 2014.
//
// # Problem
//
// Power distribution networks (PDNs) are characterized by tabulated
// scattering parameters from electromagnetic solvers. Rational macromodels
// fitted to those samples can be extremely accurate in the scattering
// domain yet useless under the nominal termination network (decoupling
// capacitors, VRM, die models): the map from S to the loaded target
// impedance Z_PDN amplifies fitting errors by a strongly frequency-
// dependent sensitivity Ξ(ω). Weighting the rational fit by Ξ fixes the
// fitting stage but typically yields a non-passive model — and standard
// passivity enforcement, which minimizes an unweighted ‖δS‖, destroys the
// carefully tuned accuracy again.
//
// # Method
//
// This library implements the complete flow:
//
//  1. Fit: weighted Vector Fitting of the scattering samples
//     (Fit, FitOptions.Weights).
//  2. Sensitivity: closed-form Ξ(ω) of the loaded PDN (Sensitivity) and a
//     Monte-Carlo reference estimator.
//  3. Weight model: Magnitude Vector Fitting of a low-order minimum-phase
//     Ξ̃(s) with |Ξ̃(jω)| ≈ Ξ(ω) (FitWeight).
//  4. Enforcement: iterative residue perturbation under linearized
//     singular-value constraints, minimizing either the standard L2 norm
//     tr(δC·P·δCᵀ) or the paper's sensitivity-weighted norm
//     Σ_ij δc_ij·P^Ξ,11·δc_ijᵀ built from the cascade realization
//     S_ij(s)·Ξ̃(s) (EnforcePassivity, EnforceOptions.Weight). Both cost
//     Gramians are assembled in closed form per pole-pair block — no dense
//     Lyapunov solve remains on any hot path.
//  5. One call: Extract runs the whole pipeline.
//
// # Passivity characterization
//
// The violation detection feeding the enforcement loop is pluggable
// (CheckOptions.Method). With N = 2·n·P the Hamiltonian dimension:
//
//	CheckHamiltonian  exact imaginary-eigenvalue test, O(N³). The oracle
//	                  and certifier for small models (N ≤ 400).
//	CheckSweep        fixed pole-seeded log grid. Flat cost, trivially
//	                  parallel; adequate for broad violation bands but a
//	                  narrow resonant band can fall between grid points.
//	CheckAdaptive     multi-stage adaptive sampling: a coarse seed grid
//	                  refined only where the local σ(ω) curvature or pole
//	                  proximity leaves room for a violation, with
//	                  certified-passive intervals pruned by a residue tail
//	                  bound. Scales to models far beyond the eigensolve
//	                  and still localizes narrow bands; inside
//	                  EnforcePassivity it shares a per-frequency
//	                  evaluation cache and warm-starts from the previous
//	                  sweep's bands.
//	CheckAuto         adaptive first; a sampled violation is the verdict,
//	                  and a passive verdict with N ≤ 400 is closed by the
//	                  Hamiltonian test (the default). Enforcement thus
//	                  re-checks fast and pays the eigensolve once.
//
// # Certification
//
// Every method except the Hamiltonian test only samples σ(ω), so a narrow
// residual band can survive enforcement unseen — and the sensitivity-
// weighted cost makes exactly such leftovers likelier, because perturbing
// high-sensitivity bands is deliberately expensive. CheckOptions.Certify
// and EnforceOptions.Certify escalate every passive verdict through a
// staged certification pipeline that retires a partition of the whole
// frequency axis interval by interval, cheapest certificate first:
//
//	tail-bound              closed-form pole-tail interval bound, zero σ
//	                        evaluations; wins wherever the passivity
//	                        headroom dwarfs the local pole mass.
//	lipschitz               σ-anchored certified sweep: rigorous derivative
//	                        bound around true σ samples (anchored on the
//	                        enforcement run's own evaluation cache), so it
//	                        inherits the residue phase cancellation the
//	                        magnitude bound cannot see; wins across the
//	                        pole band of large passive models.
//	hamiltonian             the exact eigentest, one shot, for models
//	                        within the dense eigensolve's reach.
//	hamiltonian-restricted  level-γ eigentest on a reduced model per still-
//	                        open interval, the level charged by the
//	                        truncated far-pole tail; wins on large models
//	                        whose undecided slivers are local.
//	contour-counter         argument-principle contour integral: the exact
//	                        number of level-γ Hamiltonian eigenvalues in a
//	                        thin rectangle around each still-open jω
//	                        segment, from the winding of arg det(zI − M).
//	                        Zero is a rigorous emptiness certificate; a
//	                        nonzero count bisects into crossing clusters
//	                        judged by σ samples, and a cluster that
//	                        confirms no violation stays open rather than
//	                        certified. Free when nothing is open. One
//	                        contour node costs O(N·p²) on the structured
//	                        diagonal-plus-low-rank determinant kernel
//	                        (p = 2·ports), and the stage declines above a
//	                        fixed gate of N = 6000 (its DimGate),
//	                        recording the refused intervals in
//	                        CertificateStage.Declined.
//
// Inside EnforcePassivity the pipeline runs on every convergence of the
// fast per-sweep check; violation bands it proves re-enter the loop as
// constraints instead of terminating it, which turns the sampling false
// pass into an impossible state whenever the rigorous stages cover the
// axis — PassivityCertificate.Certified records whether they did, and a
// false value marks a best-effort verdict. With the terminal counter
// stage, every certificate within the counter's dimension gate either
// lists violations or reports no open intervals
// (PassivityCertificate.Open == nil), unless the quadrature stalls, runs
// out of nodes or meets a crossing cluster it cannot confirm. The final
// verdict carries a PassivityCertificate naming the stage that settled it
// and its cost (largest eigenproblem dimension, dimension gate,
// intervals, σ samples, contour nodes); passcheck prints it with
// -certify.
//
// # Beyond the paper's figures
//
// The library also covers the paper's surrounding claims and baselines:
//
//   - FitWithRefinement: the iterative reweighting of reference [23].
//   - Transient / Droop: time-domain co-simulation of a macromodel with
//     its termination network (the §I end use), with a cumulative-energy
//     dissipativity audit that catches non-passive models generating
//     energy.
//   - ReduceModel: classical balanced-truncation model order reduction
//     ([6], [7] of the introduction) with Hankel spectrum and H∞ bound.
//   - EnforcePassivityByScaling: the guaranteed-passive residue-scaling
//     strawman used in the enforcement ablation.
//   - SData.Renormalized, SDataFromAdmittance, SDataFromImpedance: the §V
//     representation-independence claim, exercisable end to end.
//
// # Performance: workspaces and batch enforcement
//
// The per-frequency hot path of characterization and enforcement —
// transfer evaluation plus σ_max of the P×P result, repeated across every
// sweep — is allocation-free after warm-up. The internal
// packages follow a uniform "…Into" convention for this:
//
//   - An …Into function writes into a caller-owned buffer (a slice or a
//     workspace struct) and returns it; the buffer is grown only when too
//     small, so a warmed buffer is reused forever. Examples:
//     rational.EvalBasisInto / EvalWithBasisInto, mat.MaxSingularValueInto
//     (the per-frequency σ_max kernel: Gram matrix, Householder
//     tridiagonal, Sturm bisection; error bound in the mat package doc) and
//     mat.CSVDecomposeInto (the full SVD that enforcement takes at
//     violation peaks), both driven by a mat.CSVDWorkspace,
//     mat.Cholesky.SolveVecInto, mat.MulInto.
//   - The caller owns the buffers and their lifetime. Results returned by
//     a workspace (e.g. the CSVD of CSVDecomposeInto) stay valid only
//     until the next call on the same workspace.
//   - Workspaces are single-goroutine. Parallel sweeps hand each worker a
//     private workspace (parallel.ForWorkerCtx provides the stable worker
//     identity); every index still writes only its own output slot, so
//     results remain bitwise independent of the worker count.
//
// Enforcement additionally shares one EvalCache per run. It memoizes σ
// samples and, for the same residues, the Hamiltonian crossings: each
// sweep's samples (including the golden-section peak refinement's
// off-grid probes) anchor the certification sweep, the violation bands of
// the last check seed the next one, and the eigensolve that closes a
// converged run also serves a Session's certified check of the result.
// Every σ miss runs through a pooled workspace, building the pole-basis
// vector into its scratch; the workspaces are shared by all sessions.
//
// Model libraries are processed by EnforcePassivityBatch (Session.
// EnforceBatch), which shards models across workers and aggregates the
// per-model reports. Each worker runs exactly the per-model enforcement
// of Session.Enforce on the model it claimed, with the session cache of
// the model's pole set leased for that one run. A shared sensitivity
// weight (EnforceOptions.Weight) or per-model weights (BatchEnforceOptions.
// Weights) select the paper's weighted cost for the whole library; each
// model's cascade Gramian is built on its owning worker. The results are
// bitwise identical to sequential per-model EnforcePassivity runs at
// every worker count. Weights persist as JSON (Weight.SaveFile /
// LoadWeightFile) so one fitted weight can drive repeated library sweeps.
//
// # Sessions
//
// The paper's workflow is inherently iterative — fit, weight, enforce,
// re-check, re-enforce over the same pole sets — and a serving system
// repeats it across a whole model library. The Session type is the
// long-lived engine for that shape of work:
//
//   - Persistent evaluation caches. A Session keeps one EvalCache per
//     pole-set fingerprint (FNV-1a over the pole bits) across the Check,
//     Enforce, EnforceBatch and Extract methods. Each cache knows the exact
//     poles and the residue+D fingerprint its σ samples belong to and
//     drops what a perturbed or different model invalidates on its own;
//     at checkout each residue variant's σ layer parks in a per-cache
//     stash while its siblings run, so cycling through a parameter-sweep
//     library keeps every variant warm.
//     Repeated library sweeps over fixed pole sets run several times
//     faster warm (BENCH_5.json), and SaveCache / LoadCache persist the σ
//     layers across processes (passcheck -cache-dir) in the same
//     checksummed blob ExportCache / ImportCache ship between hosts. A
//     byte budget (WithCacheBudget) evicts whole least-recently-used model
//     caches; it is the only bound on cache memory.
//   - Cancellation. Every Session method takes a context.Context.
//     Cancellation is cooperative and drains deterministically: parallel
//     fan-outs stop claiming new work but finish what is in flight, no
//     goroutine outlives the call, and enforcement methods return
//     ctx.Err() together with a partial report (per-model partial reports
//     and ctx-cancelled slots inside a batch).
//   - Progress. WithProgress installs a sink receiving check, iteration
//     and certificate-stage events, serialized across batch workers.
//   - Workers. WithWorkers sets the σ fan-out width of every call and the
//     default model-level parallelism of batch runs; results do not depend
//     on it. The detection method and certification stay per-call
//     options (CheckOptions.Method/Certify, EnforceOptions.Certify).
//
// The stateless root functions (CheckPassivity, EnforcePassivity,
// EnforcePassivityBatch, Extract) are thin wrappers over a shared default
// Session with a background context; their signatures and results are
// unchanged — caching only moves work, never results, so session-routed
// outcomes are bitwise identical to the pre-Session implementations.
//
// For serving this engine over the network, cmd/passivityd wraps a pool
// of Sessions in an HTTP/JSON daemon whose scheduler routes each model
// to the worker already warm for its pole set (PoleFingerprint and
// Session.HasCache are the hooks it builds on); cmd/passcheck -remote is
// the matching client. The daemon is fault-tolerant: a panicking worker
// is caught (serve.ErrWorkerPanic), its Session retired and rebuilt, and
// the job retried on a different worker from a pristine model copy up to
// a per-job attempt budget, while the client side retries connection
// errors, 429 and 5xx with jittered exponential backoff (passcheck
// -retries / -retry-wait). Cache files carry a checksum footer; a file
// corrupted between save and load, or written in an older format, is
// quarantined by LoadCache (renamed *.corrupt) and its pole set simply
// starts cold; every rejection wraps ErrCacheCorrupt. The "Service
// layer" section of ARCHITECTURE.md has the design and the failure-mode
// table.
//
// ARCHITECTURE.md maps the paper's equations to packages and expands on
// these conventions.
//
// # Data
//
// Scattering data can be loaded from Touchstone files (ReadTouchstone),
// built from raw samples, or synthesized with the included board/package/
// die PDN generator (GeneratePDN) which substitutes for the proprietary
// testcase of the paper's §IV.
//
// All frequencies at this API level are in Hz.
package repro
