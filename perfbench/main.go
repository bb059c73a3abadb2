// Command perfbench is the repository's end-to-end benchmark. It drives
// three closed-loop workloads from one process — the paper pipeline
// (paper-flow), the passivityd daemon over loopback HTTP (service-mix) and
// a two-host cluster behind a coordinator (cluster-sweep) — and prints one
// JSON result line.
//
//	perfbench --workload service-mix --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// times the calls into each layer from outside and reports the per-layer
// metrics instead. README.md maps every metric to its layer and workload.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many set-ups a run builds; setup_s and
// setup_heap_mb report their median.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload hands back: the operation counts, any
// correctness failures, and every metric it measured (end-to-end and
// per-layer alike; main selects the set the trace mode asks for).
type outcome struct {
	attempted, failed int
	problems          []string
	inputsHash        string
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string // extra human-readable lines
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// Metric sets: every run prints exactly the set its trace mode names.
var (
	e2eNames = []string{"setup_s", "setup_heap_mb", "jobs_per_s", "job_p50_ms", "certified_ratio"}

	layerNames = []string{
		"touchstone.read_ms", "core.build_weight_ms", "vecfit.fit_ms",
		"passivity.check_ms", "passivity.check_samples",
		"passivity.enforce_ms", "passivity.enforce_iterations",
		"passivity.enforce_step_ms", "passivity.recheck_ms",
		"passivity.certify_ms", "passivity.certify_eigen_dim", "zpdn_err_lf",
		"serve.queue_wait_ms", "serve.check_service_ms", "serve.enforce_service_ms",
		"serve.certify_service_ms", "serve.wire_ms", "serve.bytes_per_job",
		"serve.affinity_hit_ratio", "serve.retries", "session.cache_mb",
		"runtime.alloc_mb_per_job", "runtime.gc_per_job",
		"trace.unattributed_pct", "trace.overhead_pct",
	}

	// units names the unit of every metric that is not in milliseconds.
	units = map[string]string{
		"setup_s": "s", "setup_heap_mb": "MB", "jobs_per_s": "1/s", "certified_ratio": "1",
		"passivity.check_samples": "count", "passivity.enforce_iterations": "count",
		"passivity.certify_eigen_dim": "count", "zpdn_err_lf": "1",
		"serve.bytes_per_job": "B", "serve.affinity_hit_ratio": "1", "serve.retries": "count",
		"session.cache_mb": "MB", "runtime.alloc_mb_per_job": "MB", "runtime.gc_per_job": "1",
		"trace.unattributed_pct": "%", "trace.overhead_pct": "%",
		"cluster.warm_lease_ratio": "1", "cluster.cache_ships_per_job": "1",
		"cluster.cache_kb_per_job": "KB", "cluster.leases_per_job": "1",
		"cluster.steals_per_job": "1", "cluster.requeues": "count", "cluster.duplicates_dropped": "count",
	}
)

func unit(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	return "ms"
}

var workloads = map[string]func(config) (*outcome, error){
	"paper-flow":    runPaperFlow,
	"service-mix":   func(c config) (*outcome, error) { return runService(c, false) },
	"cluster-sweep": func(c config) (*outcome, error) { return runService(c, true) },
}

func main() {
	name := flag.String("workload", "", "workload: paper-flow, service-mix or cluster-sweep")
	seed := flag.Int64("seed", 1, "workload seed (same seed, same inputs)")
	seconds := flag.Int("seconds", 30, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	names, set := e2eNames, out.e2e
	if cfg.trace {
		names, set = layerNames, out.layer
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("# host nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Printf("# inputs sha256=%s\n", out.inputsHash)
	for _, n := range out.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, p := range out.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	// A layer off the workload's path reads 0. Metrics outside the result
	// set (the cluster layer's, from the cluster-sweep workload) are
	// printed as comments.
	for _, n := range names {
		m := metric{Value: set[n], Unit: unit(n)}
		res.Metrics[n] = m
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	var extra []string
	for n := range set {
		if _, ok := res.Metrics[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		fmt.Printf("# %-30s %14.6g %s\n", n, set[n], unit(n))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// cpuModel reads the processor name for the host record ("unknown" where
// the kernel does not expose it).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile reports the percentile p (0..1) of xs only when at least
// ten samples lie beyond it, so a printed tail never rests on a handful of
// jobs.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	if float64(len(xs))*(1-p) < 10 {
		return 0, false
	}
	return quantile(xs, p), true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memSnapshot returns the live heap after a full collection and the
// cumulative allocation and GC counters.
func memSnapshot() (heapMB, totalAllocMB float64, numGC uint32) {
	// Two cycles: sync.Pool contents survive the first in the victim cache.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6, float64(m.TotalAlloc) / 1e6, m.NumGC
}
