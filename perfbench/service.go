package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	repro "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// service-mix and cluster-sweep share one model library and one job mix.
// The library is 64 synthetic models (4 ports, 60 poles) in 8 pole
// fingerprints of 8 residue variants each — a parameter sweep, the shape
// affinity placement exists for. Every client cycle sends 15 adaptive
// checks (reads of warm σ layers; they set p50), 4 enforce jobs (writes;
// they set p90) and 1 certified enforce job, in a seeded order that is
// the same for every cycle, so class proportions are identical in every
// run. Each enforce job resends the original violating model, so server
// state is steady after the warm-up pass.
const (
	libFingerprints  = 8
	libVariants      = 8
	enforceTemplates = 16
	certifyTemplates = 8
	cycleChecks      = 15
	cycleEnforces    = 4
	cycleCertifies   = 1
	clients          = 2 // = nproc on the reference host
)

type jobKind int

const (
	kindCheck jobKind = iota
	kindEnforce
	kindCertify
)

// template is one distinct request and the single-Session reference its
// response must equal bit for bit.
type template struct {
	kind     jobKind
	body     []byte
	passive  bool
	maxSigma float64
	model    []byte // enforced model JSON (enforce kinds)
}

func (t *template) path() string {
	if t.kind == kindCheck {
		return "/v1/check"
	}
	return "/v1/enforce"
}

type library struct {
	checks, enforces, certifies []*template
	order                       []jobKind // one cycle
	hash                        string
	footprint                   int64 // reference Session cache bytes after every template ran
}

// wireRequest mirrors the daemon's POST body.
type wireRequest struct {
	Model   json.RawMessage `json:"model"`
	Check   wireCheck       `json:"check"`
	Enforce wireEnforce     `json:"enforce"`
}

type wireCheck struct {
	Method  string `json:"method,omitempty"`
	Certify bool   `json:"certify,omitempty"`
}

type wireEnforce struct {
	Certify bool `json:"certify,omitempty"`
}

// wireResponse holds the response fields the benchmark checks or times.
type wireResponse struct {
	AffinityHit bool            `json:"affinity_hit"`
	QueueWaitMS float64         `json:"queue_wait_ms"`
	ServiceMS   float64         `json:"service_ms"`
	Model       json.RawMessage `json:"model"`
	Error       string          `json:"error"`
	Report      *struct {
		Passive  bool
		MaxSigma float64
		Samples  int
	} `json:"report"`
	Enforce *struct {
		Certificate *struct{ Certified bool }
	} `json:"enforce"`
}

// scaleResidues returns the model JSON with every residue scaled.
func scaleResidues(base []byte, scale float64) ([]byte, error) {
	var mj struct {
		R0       float64          `json:"r0"`
		Poles    [][2]float64     `json:"poles"`
		Residues [][][][2]float64 `json:"residues"`
		D        [][]float64      `json:"d"`
	}
	if err := json.Unmarshal(base, &mj); err != nil {
		return nil, err
	}
	for _, rm := range mj.Residues {
		for i := range rm {
			for j := range rm[i] {
				rm[i][j][0] *= scale
				rm[i][j][1] *= scale
			}
		}
	}
	return json.Marshal(mj)
}

// libraryModels generates the 64 library model JSONs from the seed.
func libraryModels(seed int64) ([][]byte, error) {
	var out [][]byte
	for f := 0; f < libFingerprints; f++ {
		base, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: 4, Poles: 60, Seed: seed*100 + int64(f), PeakGain: 0.9,
		})
		if err != nil {
			return nil, err
		}
		blob, err := json.Marshal(base)
		if err != nil {
			return nil, err
		}
		for v := 0; v < libVariants; v++ {
			vb, err := scaleResidues(blob, 1+0.002*float64(v))
			if err != nil {
				return nil, err
			}
			out = append(out, vb)
		}
	}
	return out, nil
}

// buildLibrary generates the requests of one trial.
func buildLibrary(seed int64) (*library, error) {
	models, err := libraryModels(seed)
	if err != nil {
		return nil, err
	}
	lib := &library{}
	h := sha256.New()
	mk := func(kind jobKind, model []byte) (*template, error) {
		req := wireRequest{Model: model, Check: wireCheck{Method: "adaptive"}}
		if kind == kindCertify {
			req.Check.Certify, req.Enforce.Certify = true, true
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		h.Write(body)
		return &template{kind: kind, body: body}, nil
	}
	for i, m := range models {
		t, err := mk(kindCheck, m)
		if err != nil {
			return nil, err
		}
		lib.checks = append(lib.checks, t)
		if i%(len(models)/enforceTemplates) == 0 {
			if t, err = mk(kindEnforce, m); err != nil {
				return nil, err
			}
			lib.enforces = append(lib.enforces, t)
		}
		if i%(len(models)/certifyTemplates) == 1 {
			if t, err = mk(kindCertify, m); err != nil {
				return nil, err
			}
			lib.certifies = append(lib.certifies, t)
		}
	}
	lib.hash = fmt.Sprintf("%x", h.Sum(nil))

	// One cycle's class order, shuffled by the seed (xorshift keeps it
	// independent of math/rand's stream across Go versions).
	for i := 0; i < cycleChecks; i++ {
		lib.order = append(lib.order, kindCheck)
	}
	for i := 0; i < cycleEnforces; i++ {
		lib.order = append(lib.order, kindEnforce)
	}
	for i := 0; i < cycleCertifies; i++ {
		lib.order = append(lib.order, kindCertify)
	}
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := len(lib.order) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		lib.order[i], lib.order[j] = lib.order[j], lib.order[i]
	}
	return lib, nil
}

// references computes every template's reference on one fresh Session —
// the worker-invariance oracle — and the library's cache footprint.
func (lib *library) references() error {
	ctx := context.Background()
	ref := repro.NewSession()
	all := append(append(append([]*template(nil), lib.checks...), lib.enforces...), lib.certifies...)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(all) && errs[g] == nil; i += clients {
				errs[g] = reference(ctx, ref, all[i])
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	lib.footprint = ref.CacheStats().Bytes
	return nil
}

// reference runs one template on the reference Session with the options
// the daemon derives from the same request.
func reference(ctx context.Context, ref *repro.Session, t *template) error {
	var req struct {
		Model *repro.Macromodel `json:"model"`
	}
	if err := json.Unmarshal(t.body, &req); err != nil {
		return err
	}
	chk := repro.CheckOptions{Method: repro.CheckAdaptive}
	if t.kind == kindCheck {
		rep, err := ref.Check(ctx, req.Model, chk)
		if err != nil {
			return fmt.Errorf("reference check: %w", err)
		}
		t.passive, t.maxSigma = rep.Passive, rep.MaxSigma
		return nil
	}
	opts := repro.EnforceOptions{Check: chk}
	if t.kind == kindCertify {
		opts.Certify, opts.Check.Certify = true, true
	}
	rep, err := ref.Enforce(ctx, req.Model, opts)
	if err != nil {
		return fmt.Errorf("reference enforce: %w", err)
	}
	t.passive, t.maxSigma = rep.Final.Passive, rep.Final.MaxSigma
	t.model, err = json.Marshal(req.Model)
	return err
}

// pick returns the job for slot of client cycle c: checks walk the
// whole library, enforce and certify jobs walk their template sets.
func (lib *library) pick(c, slot int) *template {
	n := 0
	for _, k := range lib.order[:slot] {
		if k == lib.order[slot] {
			n++
		}
	}
	switch lib.order[slot] {
	case kindCheck:
		return lib.checks[(c*cycleChecks+n)%len(lib.checks)]
	case kindEnforce:
		return lib.enforces[(c*cycleEnforces+n)%len(lib.enforces)]
	}
	return lib.certifies[(c*cycleCertifies+n)%len(lib.certifies)]
}

// backend is a running system under test: the URL clients post to, a
// /metrics scrape summed over every process-local server, and a stop.
type backend struct {
	url    string
	scrape func() (map[string]float64, error)
	stop   func()
}

func drain(s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.Drain(ctx) // every accepted job has finished; a timeout only leaks work at exit
}

// startDaemon runs one passivityd (2 Session workers) behind loopback
// HTTP. Each worker's cache budget holds 60% of the library's footprint:
// enough for the half that affinity routes to it, not for all of it.
func startDaemon(lib *library) (*backend, error) {
	srv, err := serve.New(serve.Options{
		Workers:         2,
		QueueDepth:      64,
		DefaultDeadline: 10 * time.Minute,
		CacheBudget:     lib.footprint * 3 / 5,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &backend{
		url:    ts.URL,
		scrape: func() (map[string]float64, error) { return scrapeURL(ts.URL + "/metrics") },
		stop: func() {
			ts.Close()
			drain(srv)
		},
	}, nil
}

// startCluster runs a coordinator behind loopback HTTP and two agent
// hosts of one worker each (total workers = nproc). Each host's budget
// holds 30% of the footprint, less than the half affinity places on it,
// so warm state has to be shipped between hosts.
func startCluster(lib *library) (*backend, error) {
	coord := cluster.NewCoordinator(cluster.Options{})
	cts := httptest.NewServer(coord.Handler())
	var (
		hosts  []*serve.Server
		agents []*cluster.Agent
	)
	stop := func() {
		for _, a := range agents {
			a.Stop()
		}
		for _, h := range hosts {
			drain(h)
		}
		cts.Close()
		coord.Close()
	}
	for i := 0; i < 2; i++ {
		h, err := serve.New(serve.Options{
			Workers:         1,
			QueueDepth:      64,
			DefaultDeadline: 10 * time.Minute,
			CacheBudget:     lib.footprint * 3 / 10,
		})
		if err != nil {
			stop()
			return nil, err
		}
		hosts = append(hosts, h)
		a, err := cluster.NewAgent(h, cluster.AgentOptions{
			Coordinator: cts.URL,
			Name:        fmt.Sprintf("host-%c", 'a'+i),
			Concurrency: 1,
		})
		if err != nil {
			stop()
			return nil, err
		}
		if err := a.Start(context.Background()); err != nil {
			stop()
			return nil, err
		}
		agents = append(agents, a)
	}
	scrape := func() (map[string]float64, error) {
		all, err := scrapeURL(cts.URL + "/metrics")
		if err != nil {
			return nil, err
		}
		for _, h := range hosts {
			rec := httptest.NewRecorder()
			h.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if err := parseProm(rec.Body, all); err != nil {
				return nil, err
			}
		}
		return all, nil
	}
	return &backend{url: cts.URL, scrape: scrape, stop: stop}, nil
}

func scrapeURL(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	return out, parseProm(resp.Body, out)
}

// parseProm adds every sample of a Prometheus text exposition into sums,
// keyed by metric name with the labels dropped.
func parseProm(r io.Reader, sums map[string]float64) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return fmt.Errorf("metrics line %q: %w", line, err)
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		sums[name] += v
	}
	return sc.Err()
}

// jobRecord is one client-observed job.
type jobRecord struct {
	kind      jobKind
	latency   time.Duration
	ok        bool
	certified bool
	hit       bool
	queueMS   float64
	serviceMS float64
	bytes     int
	samples   int
}

// do sends one job and checks its response against the template's
// reference. A transport error, a non-200 status (429 and 503 refusals
// included) or any mismatch marks the job failed.
func do(cli *http.Client, url string, t *template) (jobRecord, string) {
	r := jobRecord{kind: t.kind}
	t0 := time.Now()
	resp, err := cli.Post(url+t.path(), "application/json", bytes.NewReader(t.body))
	if err != nil {
		return r, err.Error()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(t0)
	if err != nil {
		return r, err.Error()
	}
	r.bytes = len(t.body) + len(body)
	var w wireResponse
	if err := json.Unmarshal(body, &w); err != nil {
		return r, fmt.Sprintf("HTTP %d: undecodable body: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Sprintf("HTTP %d: %s", resp.StatusCode, w.Error)
	}
	r.hit, r.queueMS, r.serviceMS = w.AffinityHit, w.QueueWaitMS, w.ServiceMS
	if w.Report == nil {
		return r, "response without a report"
	}
	r.samples = w.Report.Samples
	if w.Report.Passive != t.passive || w.Report.MaxSigma != t.maxSigma {
		return r, fmt.Sprintf("verdict passive=%v σmax=%.17g, reference passive=%v σmax=%.17g",
			w.Report.Passive, w.Report.MaxSigma, t.passive, t.maxSigma)
	}
	if t.kind != kindCheck {
		var got bytes.Buffer
		if err := json.Compact(&got, w.Model); err != nil || !bytes.Equal(got.Bytes(), t.model) {
			return r, "enforced model differs from the single-Session reference"
		}
	}
	if t.kind == kindCertify {
		r.certified = w.Enforce != nil && w.Enforce.Certificate != nil && w.Enforce.Certificate.Certified
	}
	r.ok = true
	return r, ""
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
}

// warmUp sends every check and enforce template once, split across the
// clients, so placement, caches and (in a cluster) the blob store reach
// their steady state before timing. Certified jobs are left out: each
// costs ~0.5 s and a run warms up three daemons.
func warmUp(b *backend, lib *library) error {
	jobs := append(append([]*template(nil), lib.checks...), lib.enforces...)
	errs := make([]string, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli := newHTTPClient()
			defer cli.CloseIdleConnections()
			for i := c; i < len(jobs); i += clients {
				if _, msg := do(cli, b.url, jobs[i]); msg != "" && errs[c] == "" {
					errs[c] = msg
				}
			}
		}(c)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			return fmt.Errorf("warm-up: %s", e)
		}
	}
	return nil
}

// trial is one independent measurement: its own library (from a
// sub-seed), its own server and warm-up, hence its own affinity
// placement, which is decided by request timing during warm-up.
type trial struct {
	setupS, heapMB, refS float64
	hash                 string
	records              []jobRecord
	failures             []string
	wall                 time.Duration
	delta                map[string]float64
	cacheMB              float64
	allocMB              float64
	gcs                  uint32
}

func runTrial(seed int64, start func(*library) (*backend, error), d time.Duration, clustered bool) (*trial, error) {
	tr := &trial{}
	t0 := time.Now()
	lib, err := buildLibrary(seed)
	if err != nil {
		return nil, err
	}
	gen := time.Since(t0)
	tr.hash = lib.hash

	// The references are the benchmark's own oracle, not the system's
	// set-up, so their time is kept out of setup_s.
	t1 := time.Now()
	if err := lib.references(); err != nil {
		return nil, err
	}
	tr.refS = time.Since(t1).Seconds()

	t2 := time.Now()
	b, err := start(lib)
	if err != nil {
		return nil, err
	}
	defer b.stop()
	if err := warmUp(b, lib); err != nil {
		return nil, err
	}
	tr.setupS = (gen + time.Since(t2)).Seconds()
	heap, alloc0, gc0 := memSnapshot()
	tr.heapMB = heap
	before, err := b.scrape()
	if err != nil {
		return nil, err
	}

	// Timed phase: each client runs whole cycles until the deadline.
	records := make([][]jobRecord, clients)
	failures := make([][]string, clients)
	t3 := time.Now()
	deadline := t3.Add(d)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cli := newHTTPClient()
			defer cli.CloseIdleConnections()
			for c := id; time.Now().Before(deadline); c += clients {
				for i := range lib.order {
					// The second client runs the cycle half a turn ahead,
					// so the two clients' heavy jobs do not line up.
					slot := (i + id*len(lib.order)/clients) % len(lib.order)
					r, msg := do(cli, b.url, lib.pick(c, slot))
					records[id] = append(records[id], r)
					if msg != "" {
						failures[id] = append(failures[id], msg)
					}
				}
			}
		}(id)
	}
	wg.Wait()
	tr.wall = time.Since(t3)
	_, alloc1, gc1 := memSnapshot()
	tr.allocMB, tr.gcs = alloc1-alloc0, gc1-gc0
	after, err := b.scrape()
	if err != nil {
		return nil, err
	}
	tr.delta = map[string]float64{}
	for k, v := range after {
		tr.delta[k] = v - before[k]
	}
	tr.cacheMB = after["passivityd_worker_cache_bytes"] / 1e6
	for id := range records {
		tr.records = append(tr.records, records[id]...)
		tr.failures = append(tr.failures, failures[id]...)
	}
	if clustered {
		// The ledger's exactly-once invariant on a healthy run.
		jobs := float64(len(tr.records))
		if l := tr.delta["passivityd_cluster_leases_total"]; l != jobs {
			tr.failures = append(tr.failures, fmt.Sprintf("cluster issued %v leases for %v jobs", l, jobs))
		}
		if r := tr.delta["passivityd_cluster_requeues_total"]; r != 0 {
			tr.failures = append(tr.failures, fmt.Sprintf("cluster requeued %v jobs on a healthy run", r))
		}
		if dup := tr.delta["passivityd_cluster_duplicates_dropped_total"]; dup != 0 {
			tr.failures = append(tr.failures, fmt.Sprintf("cluster dropped %v duplicate completions on a healthy run", dup))
		}
	}
	return tr, nil
}

// runService runs setupRepeats independent trials, each timed for an equal
// share of the run, and pools their jobs. One trial's numbers depend on
// its placement and on its library's 8 base models (a certified
// enforcement's cost varies several-fold between models); pooling three
// averages both. setup_s and setup_heap_mb are the trials' medians.
func runService(cfg config, clustered bool) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	start := startDaemon
	if clustered {
		start = startCluster
	}
	var (
		trials                []*trial
		setups, heaps, refs   []float64
		wall                  time.Duration
		delta                 = map[string]float64{}
		cacheMB, allocMB, gcs float64
	)
	h := sha256.New()
	for k := 0; k < setupRepeats; k++ {
		tr, err := runTrial(cfg.seed*setupRepeats+int64(k), start, cfg.seconds/setupRepeats, clustered)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", k, err)
		}
		trials = append(trials, tr)
		h.Write([]byte(tr.hash))
		setups, heaps, refs = append(setups, tr.setupS), append(heaps, tr.heapMB), append(refs, tr.refS)
		wall += tr.wall
		for n, v := range tr.delta {
			delta[n] += v
		}
		cacheMB += tr.cacheMB / setupRepeats
		allocMB += tr.allocMB
		gcs += float64(tr.gcs)
	}
	out.inputsHash = fmt.Sprintf("%x", h.Sum(nil))

	var (
		all                                   []jobRecord
		lat, wait, other, otherPct, samples   []float64
		service                               = map[jobKind][]float64{}
		hits, bytesTotal, certJobs, certified int
	)
	for _, tr := range trials {
		all = append(all, tr.records...)
		for _, msg := range tr.failures {
			out.problem("%s", msg)
		}
	}
	for _, r := range all {
		out.attempted++
		if !r.ok {
			out.failed++
			continue
		}
		l := ms(r.latency)
		lat = append(lat, l)
		wait = append(wait, r.queueMS)
		service[r.kind] = append(service[r.kind], r.serviceMS)
		other = append(other, l-r.queueMS-r.serviceMS)
		otherPct = append(otherPct, 100*(l-r.queueMS-r.serviceMS)/l)
		if r.kind == kindCheck {
			samples = append(samples, float64(r.samples))
		}
		if r.hit {
			hits++
		}
		bytesTotal += r.bytes
		if r.kind == kindCertify {
			certJobs++
			if r.certified {
				certified++
			}
		}
	}
	if len(lat) == 0 || certJobs == 0 {
		return nil, fmt.Errorf("no complete cycle in %v (%d jobs attempted)", wall, out.attempted)
	}
	jobs := float64(out.attempted)

	out.e2e["setup_s"] = median(setups)
	out.e2e["setup_heap_mb"] = median(heaps)
	out.e2e["jobs_per_s"] = float64(len(lat)) / wall.Seconds()
	out.e2e["job_p50_ms"] = median(lat)
	out.e2e["certified_ratio"] = float64(certified) / float64(certJobs)
	note := fmt.Sprintf("jobs=%d in %d trials, timed wall %.2f s, references %.2f s per trial", len(all), setupRepeats, wall.Seconds(), median(refs))
	if p90, ok := tailPercentile(lat, 0.9); ok {
		note += fmt.Sprintf(", job_p90_ms %.4f (n=%d)", p90, len(lat))
	}
	out.notes = append(out.notes, note)
	slow := 0 // jobs whose dispatch (latency − queue wait − service) exceeded 1 s
	for _, o := range other {
		if o > 1000 {
			slow++
		}
	}
	if slow > 0 {
		out.notes = append(out.notes, fmt.Sprintf("%d of %d jobs spent > 1 s outside queue wait and service", slow, len(lat)))
	}

	L := out.layer
	L["passivity.check_samples"] = median(samples)
	L["serve.queue_wait_ms"] = median(wait)
	L["serve.check_service_ms"] = median(service[kindCheck])
	L["serve.enforce_service_ms"] = median(service[kindEnforce])
	L["serve.certify_service_ms"] = median(service[kindCertify])
	L["serve.bytes_per_job"] = float64(bytesTotal) / float64(len(lat))
	L["serve.affinity_hit_ratio"] = float64(hits) / float64(len(lat))
	L["serve.retries"] = delta["passivityd_retries_total"]
	L["session.cache_mb"] = cacheMB
	if clustered {
		L["cluster.overhead_ms"] = median(other)
		if l := delta["passivityd_cluster_leases_total"]; l > 0 {
			L["cluster.warm_lease_ratio"] = delta["passivityd_cluster_warm_leases_total"] / l
		}
		L["cluster.cache_ships_per_job"] = delta["passivityd_cluster_cache_ships_total"] / jobs
		L["cluster.cache_kb_per_job"] = delta["passivityd_cluster_cache_transfers_bytes_total"] / 1e3 / jobs
		L["cluster.leases_per_job"] = delta["passivityd_cluster_leases_total"] / jobs
		L["cluster.steals_per_job"] = delta["passivityd_cluster_steals_total"] / jobs
		L["cluster.requeues"] = delta["passivityd_cluster_requeues_total"]
		L["cluster.duplicates_dropped"] = delta["passivityd_cluster_duplicates_dropped_total"]
	} else {
		L["serve.wire_ms"] = median(other)
	}
	L["runtime.alloc_mb_per_job"] = allocMB / jobs
	L["runtime.gc_per_job"] = gcs / jobs
	L["trace.unattributed_pct"] = median(otherPct)
	// Every response carries the per-layer fields and the /metrics scrapes
	// sit outside the timed phase, so a traced run does exactly the work of
	// an untraced one: the tracing overhead is zero by construction.
	L["trace.overhead_pct"] = 0
	return out, nil
}
