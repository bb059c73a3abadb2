package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/cmplx"
	"time"

	repro "repro"
	"repro/internal/synthpdn"
)

// paper-flow runs the paper's pipeline — Touchstone ingest, weighted fit,
// sensitivity-weighted enforcement, certified check — one job at a time
// (one client) on a fresh Session per job. The testcase is the 8-port
// synthpdn.Small preset with seeded jitter: a Paper45 job takes 15–19 s,
// too long for a run to hold enough jobs for a steady median.
const (
	paperVariants = 12 // distinct inputs; a run executes whole cycles over them
	paperPoints   = 100
)

type paperInput struct {
	touchstone []byte
	ports      int
	load       *repro.Load
	freqs      []float64
	zData      []complex128 // loaded target impedance of the source data
}

// paperJobResult is what one job leaves for the output checks.
type paperJobResult struct {
	variant int
	model   *repro.Macromodel
	final   *repro.PassivityReport
	latency time.Duration
	traced  bool
	spans   map[string]float64 // traced jobs: per-layer ms and counts
}

func paperInputs(seed int64) ([]*paperInput, string, error) {
	freqs := repro.LogFreqGrid(1e3, 2e9, paperPoints, true)
	h := sha256.New()
	var ins []*paperInput
	for k := 0; k < paperVariants; k++ {
		cfg := synthpdn.Small()
		cfg.Seed = seed*1000 + int64(k)
		p, err := synthpdn.Build(cfg)
		if err != nil {
			return nil, "", fmt.Errorf("variant %d: %w", k, err)
		}
		ss, err := p.Circuit.SweepS(freqs, 50)
		if err != nil {
			return nil, "", fmt.Errorf("variant %d sweep: %w", k, err)
		}
		data := &repro.SData{Freq: freqs, S: ss, R0: 50}
		var buf bytes.Buffer
		if err := repro.WriteTouchstoneTo(&buf, data); err != nil {
			return nil, "", err
		}
		load := p.NominalLoad()
		z, err := repro.TargetImpedance(data, load)
		if err != nil {
			return nil, "", err
		}
		h.Write(buf.Bytes())
		ins = append(ins, &paperInput{touchstone: buf.Bytes(), ports: p.Ports(), load: load, freqs: freqs, zData: z})
	}
	return ins, fmt.Sprintf("%x", h.Sum(nil)), nil
}

// paperJob is the untraced job: the paper flow exactly as a user runs it.
func paperJob(ctx context.Context, in *paperInput) (*repro.Macromodel, *repro.PassivityReport, error) {
	data, err := repro.ReadTouchstoneFrom(bytes.NewReader(in.touchstone), in.ports)
	if err != nil {
		return nil, nil, err
	}
	s := repro.NewSession()
	res, err := s.Extract(ctx, data, in.load, repro.ExtractOptions{})
	if err != nil {
		return nil, nil, err
	}
	final, err := s.Check(ctx, res.Model, repro.CheckOptions{Certify: true})
	if err != nil {
		return nil, nil, err
	}
	return res.Model, final, nil
}

// eventLog timestamps the Session's progress events so the gaps between
// them can be charged to the step that ran in between.
type eventLog struct {
	times  []time.Time
	events []repro.ProgressEvent
}

func (l *eventLog) record(e repro.ProgressEvent) {
	l.times = append(l.times, time.Now())
	l.events = append(l.events, e)
}

// paperJobTraced runs the same work as paperJob through the public
// functions Extract is made of, in Extract's order and with its options,
// timing each call from outside. Enforcement gaps are split by progress
// events: a check→iteration gap is constraint build + QP, an
// iteration→check gap (and the opening check) is the re-check. At this
// size (N = 192) the method-level check is the Hamiltonian eigentest,
// which certifies itself, so the certified check emits no stage events
// and is timed as one span.
func paperJobTraced(ctx context.Context, in *paperInput, sp map[string]float64) (*repro.Macromodel, *repro.PassivityReport, error) {
	var events eventLog
	s := repro.NewSession(repro.WithProgress(events.record))
	span := func(name string, t0 time.Time) { sp[name] += ms(time.Since(t0)) }

	t0 := time.Now()
	data, err := repro.ReadTouchstoneFrom(bytes.NewReader(in.touchstone), in.ports)
	if err != nil {
		return nil, nil, err
	}
	span("touchstone.read_ms", t0)

	t0 = time.Now()
	w, xi, err := repro.BuildWeight(data, in.load, 8)
	if err != nil {
		return nil, nil, err
	}
	span("core.build_weight_ms", t0)

	t0 = time.Now()
	model, _, err := repro.Fit(data, repro.FitOptions{NumPoles: 12, Weights: xi, ConstrainD: 0.999})
	if err != nil {
		return nil, nil, err
	}
	span("vecfit.fit_ms", t0)

	t0 = time.Now()
	before, err := s.Check(ctx, model, repro.CheckOptions{})
	if err != nil {
		return nil, nil, err
	}
	span("passivity.check_ms", t0)
	sp["passivity.check_samples"] += float64(before.Samples)

	if !before.Passive {
		events = eventLog{} // drop the fitted-model check's event
		t0 = time.Now()
		enf, err := s.Enforce(ctx, model, repro.EnforceOptions{ClampD: true, Weight: w})
		if err != nil {
			return nil, nil, err
		}
		span("passivity.enforce_ms", t0)
		sp["passivity.enforce_iterations"] += float64(enf.Iterations)
		prev, prevKind := t0, repro.ProgressCheck
		for i, e := range events.events {
			gap := ms(events.times[i].Sub(prev))
			if e.Kind == repro.ProgressIteration && prevKind == repro.ProgressCheck {
				sp["passivity.enforce_step_ms"] += gap
			} else if e.Kind == repro.ProgressCheck {
				sp["passivity.recheck_ms"] += gap
			}
			prev, prevKind = events.times[i], e.Kind
		}
	}

	t0 = time.Now()
	final, err := s.Check(ctx, model, repro.CheckOptions{Certify: true})
	if err != nil {
		return nil, nil, err
	}
	span("passivity.certify_ms", t0)
	if final.Certificate != nil {
		sp["passivity.certify_eigen_dim"] += float64(final.Certificate.EigenDim)
	}
	return model, final, nil
}

// paperTopSpans are the traced job's top-level spans; the rest of a job's
// wall time is unattributed.
var paperTopSpans = []string{"touchstone.read_ms", "core.build_weight_ms", "vecfit.fit_ms",
	"passivity.check_ms", "passivity.enforce_ms", "passivity.certify_ms"}

func runPaperFlow(cfg config) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}

	// Set-up: build the inputs and run one untimed job (heap growth and
	// first-touch costs land here), setupRepeats times; the last set-up's
	// inputs are the ones measured.
	var (
		ins        []*paperInput
		hash       string
		setupTimes []float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		next, h, err := paperInputs(cfg.seed)
		if err != nil {
			return nil, err
		}
		if _, _, err := paperJob(ctx, next[0]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i > 0 && h != hash {
			out.problem("set-up is not deterministic: input hashes %s and %s", hash, h)
		}
		ins, hash = next, h
	}
	out.inputsHash = hash
	heapMB, alloc0, gc0 := memSnapshot()

	var jobs []paperJobResult
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for cycle := 0; time.Now().Before(deadline); cycle++ {
		for v, in := range ins {
			traced := cfg.trace && (cycle+v)%2 == 0
			r := paperJobResult{variant: v, traced: traced}
			t0 := time.Now()
			var err error
			if traced {
				r.spans = map[string]float64{}
				r.model, r.final, err = paperJobTraced(ctx, in, r.spans)
			} else {
				r.model, r.final, err = paperJob(ctx, in)
			}
			r.latency = time.Since(t0)
			out.attempted++
			if err != nil {
				out.failed++
				out.problem("variant %d: %v", v, err)
				continue
			}
			jobs = append(jobs, r)
		}
	}
	wall := time.Since(start)
	_, alloc1, gc1 := memSnapshot()

	// Output checks: every final model passes the certified check, and
	// every job on one input returns the identical model, traced or not.
	var lat, latTraced, latPlain, zerr []float64
	certified := 0
	want := map[int][]byte{}
	for _, r := range jobs {
		ok := true
		if !r.final.Passive {
			out.problem("variant %d: final model is not passive (σmax %.9g)", r.variant, r.final.MaxSigma)
			ok = false
		}
		if r.final.Certificate != nil && r.final.Certificate.Certified {
			certified++
		}
		blob, err := json.Marshal(r.model)
		if err != nil {
			return nil, err
		}
		if w, seen := want[r.variant]; !seen {
			want[r.variant] = blob
		} else if !bytes.Equal(w, blob) {
			out.problem("variant %d: two jobs on the same input returned different models", r.variant)
			ok = false
		}
		in := ins[r.variant]
		z, err := repro.TargetImpedanceModel(r.model, in.freqs, in.load)
		if err != nil {
			return nil, err
		}
		zerr = append(zerr, worstRelLF(z, in.zData, in.freqs))
		if !ok {
			out.failed++
			continue
		}
		lat = append(lat, ms(r.latency))
		if r.traced {
			latTraced = append(latTraced, ms(r.latency))
		} else {
			latPlain = append(latPlain, ms(r.latency))
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("no job completed")
	}

	out.e2e["setup_s"] = median(setupTimes)
	out.e2e["setup_heap_mb"] = heapMB
	out.e2e["jobs_per_s"] = float64(len(lat)) / wall.Seconds()
	out.e2e["job_p50_ms"] = median(lat)
	out.e2e["certified_ratio"] = float64(certified) / float64(len(jobs))
	out.notes = append(out.notes, fmt.Sprintf("jobs=%d in cycles over %d inputs, timed wall %.2f s, zpdn_err_lf median %.6g", len(jobs), paperVariants, wall.Seconds(), median(zerr)))
	if p90, ok := tailPercentile(lat, 0.9); ok {
		out.notes = append(out.notes, fmt.Sprintf("job_p90_ms %.4f (n=%d)", p90, len(lat)))
	}

	if cfg.trace {
		perJob := map[string][]float64{}
		var unattributed []float64
		for _, r := range jobs {
			if !r.traced {
				continue
			}
			covered := 0.0
			for _, n := range paperTopSpans {
				covered += r.spans[n]
			}
			wallMS := ms(r.latency)
			unattributed = append(unattributed, 100*(wallMS-covered)/wallMS)
			for _, n := range layerNames {
				if v, ok := r.spans[n]; ok {
					perJob[n] = append(perJob[n], v)
				}
			}
		}
		for n, vs := range perJob {
			out.layer[n] = median(vs)
		}
		out.layer["zpdn_err_lf"] = median(zerr)
		out.layer["runtime.alloc_mb_per_job"] = (alloc1 - alloc0) / float64(len(jobs))
		out.layer["runtime.gc_per_job"] = float64(gc1-gc0) / float64(len(jobs))
		out.layer["trace.unattributed_pct"] = median(unattributed)
		out.layer["trace.overhead_pct"] = 100 * (median(latTraced)/median(latPlain) - 1)
		if u := median(unattributed); u > 5 {
			out.problem("traced spans cover only %.1f%% of job wall time (need ≥ 95%%)", 100-u)
		}
	}
	return out, nil
}

// worstRelLF is the paper's Fig. 5 accuracy figure: the worst relative
// error of the loaded target impedance for 0 < f < 10 MHz.
func worstRelLF(model, data []complex128, freqs []float64) float64 {
	worst := 0.0
	for i, f := range freqs {
		if f <= 0 || f >= 1e7 {
			continue
		}
		if r := cmplx.Abs(model[i]-data[i]) / (1e-15 + cmplx.Abs(data[i])); r > worst {
			worst = r
		}
	}
	return worst
}
