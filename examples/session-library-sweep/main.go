// Session library sweep: the repeated-sweep workload of a model-library
// service, run through the long-lived Session API. A fixed-pole library is
// checked three times — cold, warm (same Session, caches resident), and
// warm-from-disk (a new Session that reloaded the persisted caches, as a
// restarted service would) — with identical reports every time and the
// warm sweeps several times faster. The persisted caches carry σ samples
// only, one small checksummed file per pole set. A progress sink shows
// the service-side observability hooks; passcheck -cache-dir exposes the
// same machinery on the command line.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	repro "repro"
)

func main() {
	// A library of six synthetic macromodels sharing nothing but their
	// construction recipe: six distinct pole sets, all with violations.
	const libSize = 6
	models := make([]*repro.Macromodel, libSize)
	for i := range models {
		m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: 4, Poles: 60, Seed: int64(1 + i), PeakGain: 0.9,
		})
		if err != nil {
			log.Fatal(err)
		}
		models[i] = m
	}

	// One long-lived engine for the whole service lifetime. The progress
	// sink sees every check; a real service would export these as metrics.
	var checks int
	sess := repro.NewSession(
		repro.WithProgress(func(ev repro.ProgressEvent) {
			if ev.Kind == repro.ProgressCheck {
				checks++
			}
		}),
	)
	ctx := context.Background()
	opts := repro.CheckOptions{Method: repro.CheckAdaptive}

	sweep := func(s *repro.Session) ([]float64, time.Duration) {
		start := time.Now()
		sigmas := make([]float64, len(models))
		for i, m := range models {
			rep, err := s.Check(ctx, m, opts)
			if err != nil {
				log.Fatal(err)
			}
			sigmas[i] = rep.MaxSigma
		}
		return sigmas, time.Since(start)
	}

	// Sweep 1: cold — every σ sample is computed.
	cold, tCold := sweep(sess)
	st := sess.CacheStats()
	fmt.Printf("cold sweep:  %8v  (%d caches, %d σ entries resident)\n",
		tCold.Round(time.Microsecond), st.Models, st.SigmaEntries)

	// Sweep 2: warm — the same library, served from the session caches.
	warm, tWarm := sweep(sess)
	fmt.Printf("warm sweep:  %8v  (%.1fx faster)\n",
		tWarm.Round(time.Microsecond), float64(tCold)/float64(tWarm))

	// Persist the caches and start a "new process": a fresh Session that
	// loads them back and sweeps warm immediately. The files hold the σ
	// samples; the reloaded session evaluates only where a check needs a σ
	// value the file does not have.
	dir, err := os.MkdirTemp("", "session-caches-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := sess.SaveCache(dir); err != nil {
		log.Fatal(err)
	}
	restarted := repro.NewSession()
	if _, _, err := restarted.LoadCache(dir); err != nil {
		log.Fatal(err)
	}
	disk, tDisk := sweep(restarted)
	fmt.Printf("reloaded:    %8v  (new Session, caches from %s)\n", tDisk.Round(time.Microsecond), dir)

	// The three sweeps must agree exactly: caching only moves work, never
	// results.
	for i := range cold {
		if cold[i] != warm[i] || cold[i] != disk[i] {
			log.Fatalf("model %d: σmax drifted across sweeps: %v / %v / %v", i, cold[i], warm[i], disk[i])
		}
	}
	fmt.Printf("σmax identical across all three sweeps; %d checks observed by the progress sink\n", checks)
}
