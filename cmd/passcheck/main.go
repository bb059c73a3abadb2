// Command passcheck assesses the passivity of tabulated scattering data
// (Touchstone .sNp) or of a fitted macromodel (JSON produced by the
// library), reports violations, and optionally fits + enforces in one shot.
//
// Usage:
//
//	passcheck [-ports N] [-fit n] [-enforce] [-certify] [-save out.json] [-method m] input.s4p
//	passcheck -model model.json [-enforce] [-certify] [-weight w.json] [-save out.json] [-method m]
//	passcheck -batch 'lib/*.json' [-enforce] [-certify] [-weight w.json | -load spec] [-workers N] [-save-dir out/]
//	passcheck -remote http://host:7077 {-model m.json | -batch 'lib/*.json'} [-enforce] [-certify] [-deadline 30s] [-retries 5] [-retry-wait 250ms]
//
// -method selects the detection algorithm: auto (multi-stage adaptive
// sampling, with a passive verdict on a small model closed by the
// Hamiltonian eigentest), hamiltonian, sweep, or adaptive. -sweep tunes
// the fixed sweep's grid density; the adaptive method ignores it.
//
// -certify escalates every passive verdict through the staged
// certification pipeline (closed-form tail-bound interval certificates,
// then an exact or restricted-band Hamiltonian eigentest): a plain check
// reports the certifying stage and its cost; with -enforce, violation
// bands the pipeline proves re-enter the enforcement loop as constraints,
// so a model only comes back passive together with a certificate covering
// the whole frequency axis. The report lines name the stage that settled
// the verdict, the largest eigenproblem solved and the intervals each
// stage certified.
//
// -batch runs over a whole model library (a glob of saved macromodel JSON
// files): with -enforce the models are enforced in parallel shards
// (-workers) through the batch subsystem, otherwise each is checked. Per-
// model failures are reported without aborting the batch; -save-dir writes
// the final models under their original base names.
//
// All work runs through a long-lived repro.Session. -cache-dir names a
// directory of persisted evaluation caches (one checksummed file of σ
// samples per pole-set fingerprint): existing caches are loaded before
// the run, so repeated library sweeps over fixed pole sets start warm,
// and the session state is saved back afterwards. A corrupt or
// older-format cache file is quarantined (renamed *.corrupt) and its pole
// set starts cold; the load line reports how many were set aside.
// SIGINT/SIGTERM cancel the run gracefully — in-flight models drain,
// partial results are reported, caches are still saved — and exit with
// status 130.
//
// Enforcement is sensitivity-weighted (the paper's scheme, built on the
// closed-form cascade Gramian) when either weight source is given:
//
//   - -weight w.json loads one saved weight (Weight.SaveFile) shared by
//     every model;
//   - -load spec (batch mode) derives a per-model weight from each model's
//     own response under a termination network. The spec is a comma-
//     separated per-port list of open | short | r:R | decap:C:ESR:ESL |
//     die:R:C | vrm:R:L (a single term applies to all ports); -obs picks
//     the observation port and -weight-order the weight order n_w.
//
// -remote ships the work to a running passivityd daemon (cmd/passivityd)
// instead of the in-process engine: each -model or -batch entry is POSTed
// as a job and the daemon's pole-fingerprint affinity scheduler places it
// on the worker whose evaluation caches are already warm for its pole
// set. The per-model lines additionally report the serving worker and
// whether the placement was an affinity hit; -deadline bounds each job's
// running time server-side. Weighted enforcement (-weight/-load) and
// -cache-dir are local-mode features — the daemon owns its caches.
//
// The remote client retries connection errors, 429 queue-full rejections
// and 5xx responses with bounded exponential backoff plus jitter,
// honoring the daemon's Retry-After hint: -retries caps the attempts per
// request and -retry-wait sets the first backoff step. When the daemon
// itself retried a job after a worker fault, the result line carries an
// attempts=N tail.
//
// Exit status: 0 when every final artifact is passive, 1 when not, 2 on
// usage or I/O errors, 130 when interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	repro "repro"
	"repro/internal/serve"
)

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "passcheck: "+format+"\n", args...)
	os.Exit(code)
}

// run carries the per-invocation session state: the engine, the run
// context (cancelled by SIGINT/SIGTERM) and the cache directory.
type run struct {
	ctx      context.Context
	sess     *repro.Session
	cacheDir string
}

// saveCaches persists the session caches when -cache-dir is set.
func (r *run) saveCaches() {
	if r.cacheDir == "" {
		return
	}
	if err := r.sess.SaveCache(r.cacheDir); err != nil {
		fmt.Fprintf(os.Stderr, "passcheck: saving caches: %v\n", err)
		return
	}
	st := r.sess.CacheStats()
	fmt.Printf("saved %d evaluation caches to %s (%d σ entries)\n",
		st.Models, r.cacheDir, st.SigmaEntries)
}

// interrupted reports a context cancellation, saves the caches and exits
// with the conventional SIGINT status.
func (r *run) interrupted() {
	fmt.Fprintln(os.Stderr, "passcheck: interrupted — partial results above")
	r.saveCaches()
	os.Exit(130)
}

// checkErr fails on an error, routing cancellations through interrupted.
func (r *run) checkErr(err error, what string) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) {
		r.interrupted()
	}
	fail(2, "%s: %v", what, err)
}

func main() {
	ports := flag.Int("ports", 0, "port count when not parsable from the extension")
	modelPath := flag.String("model", "", "check a saved macromodel (JSON) instead of raw data")
	fit := flag.Int("fit", 0, "fit a macromodel with this many poles before checking")
	enforce := flag.Bool("enforce", false, "enforce passivity on the (fitted or loaded) model")
	certify := flag.Bool("certify", false, "escalate passive verdicts through the certification pipeline (see doc)")
	save := flag.String("save", "", "save the final model as JSON")
	sweep := flag.Int("sweep", 1200, "sweep grid points for the model check")
	method := flag.String("method", "auto", "passivity check method: auto|hamiltonian|sweep|adaptive")
	batch := flag.String("batch", "", "glob of saved macromodel JSON files to process as a library")
	workers := flag.Int("workers", 0, "batch mode: model-level parallel shards (0 = GOMAXPROCS)")
	saveDir := flag.String("save-dir", "", "batch mode: directory to save final models into")
	weightPath := flag.String("weight", "", "saved sensitivity weight (JSON) for weighted enforcement")
	loadSpec := flag.String("load", "", "batch mode: termination spec deriving per-model weights (see doc)")
	weightOrder := flag.Int("weight-order", 8, "-load mode: weight order n_w")
	obsPort := flag.Int("obs", 0, "-load mode: observation port of the target impedance")
	cacheDir := flag.String("cache-dir", "", "persist/reload session evaluation caches in this directory")
	remote := flag.String("remote", "", "base URL of a passivityd daemon to run the jobs on (e.g. http://host:7077)")
	deadline := flag.Duration("deadline", 0, "-remote mode: per-job deadline (0 = daemon default)")
	retries := flag.Int("retries", 5, "-remote mode: attempts per request for connection errors, 429 and 5xx")
	retryWait := flag.Duration("retry-wait", 250*time.Millisecond, "-remote mode: first backoff step (doubled per attempt, with jitter)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	checkMethod, err := serve.ParseCheckMethod(*method)
	if err != nil {
		fail(2, "%v", err)
	}
	if *remote != "" {
		if *weightPath != "" || *loadSpec != "" {
			fail(2, "weighted enforcement is local-only; drop -weight/-load in -remote mode")
		}
		if *cacheDir != "" {
			fail(2, "-cache-dir is the daemon's concern; configure passivityd -cache-dir instead")
		}
		if *fit > 0 || flag.NArg() != 0 {
			fail(2, "-remote processes saved models: pass -model or -batch, not raw Touchstone input")
		}
		if (*modelPath == "") == (*batch == "") {
			fail(2, "-remote needs exactly one of -model or -batch")
		}
		runRemote(ctx, strings.TrimRight(*remote, "/"), *modelPath, *batch, *method, *sweep,
			*enforce, *certify, *deadline, *save, *saveDir, *retries, *retryWait)
		return
	}
	r := &run{
		ctx:      ctx,
		sess:     repro.NewSession(repro.WithWorkers(*workers)),
		cacheDir: *cacheDir,
	}
	if *cacheDir != "" {
		loaded, quarantined, err := r.sess.LoadCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "passcheck: loading caches: %v\n", err)
		}
		if loaded+quarantined > 0 {
			fmt.Printf("loaded %d evaluation caches from %s (%d σ entries, %d quarantined)\n",
				loaded, *cacheDir, r.sess.CacheStats().SigmaEntries, quarantined)
		}
	}

	var weight *repro.Weight
	if *weightPath != "" {
		if *loadSpec != "" {
			fail(2, "-weight and -load are mutually exclusive weight sources")
		}
		if !*enforce {
			fail(2, "-weight selects the weighted enforcement cost and needs -enforce")
		}
		if weight, err = repro.LoadWeightFile(*weightPath); err != nil {
			fail(2, "loading weight: %v", err)
		}
	}

	if *loadSpec != "" && !*enforce {
		fail(2, "-load weights only matter with -enforce")
	}

	chkBase := repro.CheckOptions{Method: checkMethod, SweepPoints: *sweep, Certify: *certify}
	if *batch != "" {
		if flag.NArg() != 0 {
			fail(2, "-batch takes no positional arguments (got %d)", flag.NArg())
		}
		runBatch(r, *batch, chkBase, *enforce, *certify, *workers, *saveDir, weight, *loadSpec, *weightOrder, *obsPort)
		return
	}
	if *loadSpec != "" {
		fail(2, "-load derives per-model weights and needs -batch mode")
	}

	var model *repro.Macromodel
	switch {
	case *modelPath != "":
		model, err = repro.LoadMacromodel(*modelPath)
		if err != nil {
			fail(2, "loading model: %v", err)
		}
		fmt.Printf("model: %d ports, %d poles, R0 = %g Ω\n", model.Ports(), model.NumPoles(), model.R0())
	case flag.NArg() == 1:
		data, err := repro.ReadTouchstone(flag.Arg(0), *ports)
		if err != nil {
			fail(2, "reading %s: %v", flag.Arg(0), err)
		}
		fmt.Printf("data: %d ports, %d samples, R0 = %g Ω\n", data.Ports(), data.Points(), data.R0)
		worst, at := 0.0, 0.0
		for k, s := range data.MaxSingularValues() {
			if s > worst {
				worst, at = s, data.Freq[k]
			}
		}
		fmt.Printf("data passivity: σmax = %.6f at %.4g Hz", worst, at)
		if worst > 1+1e-9 {
			fmt.Println("  ** data itself is non-passive **")
		} else {
			fmt.Println("  (samples passive)")
		}
		if *fit <= 0 {
			if worst > 1+1e-9 {
				os.Exit(1)
			}
			return
		}
		model, _, err = repro.Fit(data, repro.FitOptions{NumPoles: *fit, ConstrainD: 0.999})
		if err != nil {
			fail(2, "fit: %v", err)
		}
		fmt.Printf("fitted %d poles, RMS error %.3g\n", *fit, model.RMSError(data))
	default:
		fail(2, "need exactly one Touchstone file or -model (got %d args)", flag.NArg())
	}

	chkOpts := chkBase
	rep, err := r.sess.Check(r.ctx, model, chkOpts)
	r.checkErr(err, "check")
	printReport(rep)

	if !rep.Passive && *enforce {
		// The enforcement engine certifies on convergence itself; the
		// per-sweep checks stay on the fast method.
		enfChk := chkOpts
		enfChk.Certify = false
		enf, err := r.sess.Enforce(r.ctx, model, repro.EnforceOptions{Check: enfChk, ClampD: true, Weight: weight, Certify: *certify})
		r.checkErr(err, "enforce")
		cost := "standard L2"
		if weight != nil {
			cost = "sensitivity-weighted"
		}
		fmt.Printf("enforced in %d iterations (%s cost, D clamped: %v", enf.Iterations, cost, enf.DClamped)
		if *certify {
			fmt.Printf(", certified rescues: %d", enf.CertifiedRescues)
		}
		fmt.Println(")")
		// enf.Final carries the certificate; printReport shows it.
		rep = enf.Final
		printReport(rep)
	}
	if *save != "" && model != nil {
		if err := model.SaveFile(*save); err != nil {
			fail(2, "saving: %v", err)
		}
		fmt.Printf("saved model to %s\n", *save)
	}
	r.saveCaches()
	if !rep.Passive {
		os.Exit(1)
	}
}

// runBatch processes a library of saved models: load every glob match,
// check or enforce the whole set (optionally with a shared -weight or
// per-model -load derived sensitivity weights, and with -certify a
// certification stage per model on its owning worker), print per-model
// lines plus aggregate stats, and exit with the library verdict. The run
// goes through the session, so -cache-dir makes repeated sweeps start
// warm, and a SIGINT mid-batch drains gracefully with partial results.
func runBatch(r *run, glob string, chkOpts repro.CheckOptions, enforce, certify bool, workers int, saveDir string,
	weight *repro.Weight, loadSpec string, weightOrder, obsPort int) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		fail(2, "bad -batch pattern %q: %v", glob, err)
	}
	if len(paths) == 0 {
		fail(2, "-batch %q matched no files", glob)
	}
	sort.Strings(paths)
	models := make([]*repro.Macromodel, len(paths))
	for i, p := range paths {
		if models[i], err = repro.LoadMacromodel(p); err != nil {
			fail(2, "loading %s: %v", p, err)
		}
	}
	fmt.Printf("batch: %d models\n", len(models))

	var perModel []*repro.Weight
	if loadSpec != "" {
		// Shard the derivations like the enforcement itself: each weight
		// fit (sample sweep + magnitude VF) is independent, and on a big
		// library a serial pre-pass would idle the worker pool below.
		perModel = make([]*repro.Weight, len(models))
		errs := make([]error, len(models))
		shards := workers
		if shards <= 0 {
			shards = runtime.GOMAXPROCS(0)
		}
		var wg sync.WaitGroup
		for w := 0; w < shards; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(models); i += shards {
					load, err := parseLoadSpec(loadSpec, models[i].Ports(), obsPort)
					if err != nil {
						errs[i] = err
						continue
					}
					perModel[i], errs[i] = deriveModelWeight(models[i], load, weightOrder)
				}
			}(w)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				fail(2, "deriving weight for %s: %v", paths[i], err)
			}
		}
		fmt.Printf("derived %d per-model sensitivity weights (order %d, load %q)\n",
			len(perModel), weightOrder, loadSpec)
	}

	allPassive := true
	cancelled := false
	// In enforce mode a failed or cancelled model is NOT a finished
	// artifact; -save-dir must skip it (in check mode models are never
	// modified, so saving is always just a copy).
	var enforceErrs []error
	if enforce {
		if weight != nil {
			fmt.Printf("weighted enforcement: shared weight, order %d\n", weight.Order())
		}
		enfChk := chkOpts
		enfChk.Certify = false // the engine certifies on convergence itself
		rep, err := r.sess.EnforceBatch(r.ctx, models, repro.BatchEnforceOptions{
			Enforce: repro.EnforceOptions{Check: enfChk, ClampD: true, Weight: weight, Certify: certify},
			Weights: perModel,
			Workers: workers,
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			fail(2, "batch enforce: %v", err)
		}
		cancelled = err != nil
		enforceErrs = rep.Errors
		for i, p := range paths {
			switch {
			case errors.Is(rep.Errors[i], context.Canceled):
				fmt.Printf("  %s: CANCELLED\n", p)
				allPassive = false
			case rep.Errors[i] != nil:
				fmt.Printf("  %s: FAILED: %v\n", p, rep.Errors[i])
				allPassive = false
			default:
				mr := rep.Reports[i]
				fmt.Printf("  %s: passive=%v iterations=%d σmax=%.6f%s\n",
					p, mr.Passive, mr.Iterations, mr.Final.MaxSigma, certSummary(mr.Certificate))
				if !mr.Passive {
					allPassive = false
				}
			}
		}
		fmt.Printf("batch summary: %d/%d passive, %d failed, %d total iterations, worst σ=%.6f\n",
			rep.Passive, rep.Models, rep.Failed, rep.TotalIterations, rep.WorstSigma)
		if certify {
			fmt.Printf("batch certification: %d/%d certified, %d rescued convergences\n",
				rep.Certified, rep.Models, rep.CertifiedRescues)
		}
	} else {
		for i, p := range paths {
			rep, err := r.sess.Check(r.ctx, models[i], chkOpts)
			if errors.Is(err, context.Canceled) {
				// Account for every remaining model so the report stays
				// index-complete, like the enforce branch.
				for _, q := range paths[i:] {
					fmt.Printf("  %s: CANCELLED\n", q)
				}
				allPassive = false
				cancelled = true
				break
			}
			if err != nil {
				fmt.Printf("  %s: FAILED: %v\n", p, err)
				allPassive = false
				continue
			}
			fmt.Printf("  %s: passive=%v σmax=%.6f at %.4g Hz (%d samples)%s\n",
				p, rep.Passive, rep.MaxSigma, rep.MaxFreqHz, rep.Samples, certSummary(rep.Certificate))
			if !rep.Passive {
				allPassive = false
			}
		}
	}
	if saveDir != "" {
		if err := os.MkdirAll(saveDir, 0o755); err != nil {
			fail(2, "creating %s: %v", saveDir, err)
		}
		saved := 0
		for i, p := range paths {
			if enforceErrs != nil && enforceErrs[i] != nil {
				continue // failed or cancelled: not an enforced artifact
			}
			out := filepath.Join(saveDir, filepath.Base(p))
			if err := models[i].SaveFile(out); err != nil {
				fail(2, "saving %s: %v", out, err)
			}
			saved++
		}
		fmt.Printf("saved %d models to %s\n", saved, saveDir)
	}
	if cancelled {
		r.interrupted()
	}
	r.saveCaches()
	if !allPassive {
		os.Exit(1)
	}
}

// parseLoadSpec builds the termination network of a -load spec for a model
// with the given port count: a comma-separated per-port list of
// open | short | r:R | decap:C:ESR:ESL | die:R:C | vrm:R:L, a single term
// replicating across all ports. The Norton excitation is a unit current at
// the observation port (eq. 2's definition of the target impedance).
func parseLoadSpec(spec string, ports, obsPort int) (*repro.Load, error) {
	entries := strings.Split(spec, ",")
	if len(entries) == 1 {
		for len(entries) < ports {
			entries = append(entries, entries[0])
		}
	}
	if len(entries) != ports {
		return nil, fmt.Errorf("-load lists %d terminations for a %d-port model", len(entries), ports)
	}
	if obsPort < 0 || obsPort >= ports {
		return nil, fmt.Errorf("-obs %d out of range for a %d-port model", obsPort, ports)
	}
	terms := make([]repro.Termination, ports)
	for i, e := range entries {
		t, err := parseTermination(strings.TrimSpace(e))
		if err != nil {
			return nil, err
		}
		terms[i] = t
	}
	j := make([]complex128, ports)
	j[obsPort] = 1
	return &repro.Load{Terms: terms, J: j, ObsPort: obsPort}, nil
}

// parseTermination parses one port term of a -load spec.
func parseTermination(e string) (repro.Termination, error) {
	parts := strings.Split(e, ":")
	vals := make([]float64, 0, 3)
	for _, p := range parts[1:] {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q in term %q", p, e)
		}
		vals = append(vals, v)
	}
	want := func(n int) error {
		if len(vals) != n {
			return fmt.Errorf("term %q wants %d values, got %d", parts[0], n, len(vals))
		}
		return nil
	}
	switch parts[0] {
	case "open":
		return repro.OpenPort(), want(0)
	case "short":
		return repro.ShortPort(), want(0)
	case "r":
		if err := want(1); err != nil {
			return nil, err
		}
		return repro.ResistorLoad(vals[0]), nil
	case "decap":
		if err := want(3); err != nil {
			return nil, err
		}
		return repro.DecapLoad(vals[0], vals[1], vals[2]), nil
	case "die":
		if err := want(2); err != nil {
			return nil, err
		}
		return repro.DieLoad(vals[0], vals[1]), nil
	case "vrm":
		if err := want(2); err != nil {
			return nil, err
		}
		return repro.VRMLoad(vals[0], vals[1]), nil
	}
	return nil, fmt.Errorf("unknown termination %q (want open, short, r, decap, die or vrm)", parts[0])
}

// deriveModelWeight samples the model's own scattering response over a log
// grid spanning its pole resonances and fits the sensitivity weight of the
// loaded configuration to it — the batch-mode analogue of building the
// weight from the original solver data.
func deriveModelWeight(m *repro.Macromodel, load *repro.Load, order int) (*repro.Weight, error) {
	lo, hi := math.Inf(1), 0.0
	for _, p := range m.Poles() {
		f := math.Abs(imag(p)) / (2 * math.Pi)
		if f == 0 {
			f = math.Abs(real(p)) / (2 * math.Pi)
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if !(lo > 0) || hi <= 0 {
		return nil, fmt.Errorf("model has no finite resonances to span a weight-fit band")
	}
	freqs := repro.LogFreqGrid(lo/10, hi*10, 80, false)
	w, _, err := repro.BuildWeight(m.Sample(freqs), load, order)
	return w, err
}

func printReport(rep *repro.PassivityReport) {
	fmt.Printf("model passivity [%s]: passive=%v σmax=%.6f at %.4g Hz, σmax(D)=%.6f",
		rep.Method, rep.Passive, rep.MaxSigma, rep.MaxFreqHz, rep.DSigma)
	if rep.Samples > 0 {
		fmt.Printf(" (%d samples)", rep.Samples)
	}
	fmt.Println()
	for i, v := range rep.Violations {
		fmt.Printf("  violation %d: σ=%.6f at %.4g Hz, band [%.4g, %.4g] Hz\n",
			i+1, v.SigmaPeak, v.FreqPeakHz, v.FreqLoHz, v.FreqHiHz)
	}
	printCertificate(rep.Certificate)
}

// printCertificate reports which pipeline stage settled the verdict and
// what each stage spent (eigenproblem size and dimension gate, intervals
// certified, samples, and for the terminal contour-counter stage its
// quadrature nodes).
func printCertificate(c *repro.PassivityCertificate) {
	if c == nil {
		return
	}
	fmt.Printf("certificate: stage=%s certified=%v (largest eigenproblem %d, %d axis intervals)\n",
		c.Stage, c.Certified, c.EigenDim, c.Intervals)
	for _, s := range c.Stages {
		fmt.Printf("  stage %-22s certified %d intervals", s.Stage, s.Certified)
		if s.Violations > 0 {
			fmt.Printf(", proved %d violations", s.Violations)
		}
		if s.EigenDim > 0 {
			fmt.Printf(", eigenproblem dim %d", s.EigenDim)
		}
		if s.DimGate > 0 {
			fmt.Printf(", dim gate %d", s.DimGate)
		}
		if s.Declined > 0 {
			fmt.Printf(", declined %d intervals at the gate", s.Declined)
		}
		if s.Samples > 0 {
			fmt.Printf(", %d σ samples", s.Samples)
		}
		if s.Nodes > 0 {
			fmt.Printf(", %d contour nodes", s.Nodes)
		}
		if s.Note != "" {
			fmt.Printf(" [%s]", s.Note)
		}
		fmt.Println()
	}
	for _, b := range c.Open {
		fmt.Printf("  OPEN band [%g, %g] Hz — no stage could settle it\n", b.FreqLoHz, b.FreqHiHz)
	}
}

// certSummary compresses a certificate into the per-model batch line.
func certSummary(c *repro.PassivityCertificate) string {
	if c == nil {
		return ""
	}
	return fmt.Sprintf(" cert=%s/%v(dim %d)", c.Stage, c.Certified, c.EigenDim)
}
