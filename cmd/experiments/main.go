// Command experiments runs the repository's experiments through the
// hypothesis harness: the paper's evaluation figures (§IV, Figs. 1–6) on
// the synthetic 45-port PDN testcase, plus the extension experiments
// Ext-A..Ext-H (representation independence, transient verification, MOR
// baseline, enforcement ablation, adaptive characterization, batch
// enforcement, closed-form weighted Gramian, certified enforcement). Each
// is a registered hypothesis judged to a verdict and recorded as a
// FINDINGS artifact, with its plotted series written as CSV beside it.
//
//	experiments list                     show registered hypotheses
//	experiments run [-out dir] [id ...]  evaluate hypotheses, write FINDINGS
//	experiments report [-out dir]        summarize FINDINGS artifacts on disk
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/experiments/hypothesis"
)

const usage = `usage:
  experiments list                     show registered hypotheses
  experiments run [-out dir] [id ...]  evaluate hypotheses, write FINDINGS
  experiments report [-out dir]        summarize FINDINGS artifacts on disk
`

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "list":
			os.Exit(runList())
		case "run":
			os.Exit(runHypotheses(os.Args[2:]))
		case "report":
			os.Exit(runReport(os.Args[2:]))
		}
	}
	fmt.Fprint(os.Stderr, usage)
	os.Exit(2)
}

func registry() *hypothesis.Registry {
	reg, err := experiments.Hypotheses(experiments.Default())
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: building hypothesis registry: %v\n", err)
		os.Exit(1)
	}
	return reg
}

func runList() int {
	for _, s := range registry().Specs() {
		fmt.Printf("%-34s %s/%s\n    %s\n", s.ID, s.Class, s.Subtype, s.Claim)
	}
	return 0
}

func runHypotheses(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	out := fs.String("out", "results/findings", "directory for FINDINGS artifacts and CSV series (empty = no files)")
	fs.Parse(args)

	reg := registry()
	var specs []*hypothesis.Spec
	ids := fs.Args()
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		specs = reg.Specs()
	} else {
		for _, id := range ids {
			s, ok := reg.Get(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown hypothesis %q (try 'experiments list')\n", id)
				return 2
			}
			specs = append(specs, s)
		}
	}

	t0 := time.Now()
	exit := 0
	for _, s := range specs {
		t1 := time.Now()
		f, err := hypothesis.Evaluate(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", s.ID, err)
			return 1
		}
		fmt.Printf("%-34s %-12s %s  (%.1fs)\n", f.ID, string(f.Verdict), f.Reason, time.Since(t1).Seconds())
		if f.Verdict == hypothesis.Refuted {
			exit = 1
		}
		if *out != "" {
			if _, err := f.Write(*out); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: writing FINDINGS: %v\n", err)
				return 1
			}
		}
	}
	if *out != "" {
		fmt.Printf("total %.1fs; FINDINGS artifacts in %s\n", time.Since(t0).Seconds(), *out)
	}
	return exit
}

func runReport(args []string) int {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	out := fs.String("out", "results/findings", "directory holding FINDINGS-*.json artifacts")
	fs.Parse(args)

	paths, err := filepath.Glob(filepath.Join(*out, "FINDINGS-*.json"))
	if err != nil || len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no FINDINGS artifacts in %s (run 'experiments run' first)\n", *out)
		return 1
	}
	sort.Strings(paths)
	exit := 0
	for _, p := range paths {
		f, err := hypothesis.ReadFinding(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: reading %s: %v\n", p, err)
			return 1
		}
		fmt.Printf("%-34s %-12s %s\n", f.ID, string(f.Verdict), f.Reason)
		if f.Verdict == hypothesis.Refuted {
			exit = 1
		}
	}
	return exit
}
