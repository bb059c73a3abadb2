// This example reproduces the paper's core comparison on the 45-port
// testcase: the same non-passive sensitivity-weighted macromodel is made
// passive twice — once with the standard L2 cost and once with the
// sensitivity-weighted cost — and the resulting loaded target impedances
// are compared against the nominal one (the paper's Fig. 5).
//
// Expect a few minutes of runtime: this is the full flow on 45 ports.
package main

import (
	"fmt"
	"log"
	"math/cmplx"

	repro "repro"
)

func main() {
	freqs := repro.LogFreqGrid(1e3, 2e9, 150, true)
	fmt.Println("generating 45-port synthetic PDN...")
	syn, err := repro.GeneratePDN(repro.PDNPaper45, freqs, 50)
	if err != nil {
		log.Fatal(err)
	}

	zref, err := repro.TargetImpedance(syn.Data, syn.Load)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("building sensitivity weight (n_w = 8)...")
	weight, xi, err := repro.BuildWeight(syn.Data, syn.Load, 8)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("weighted Vector Fitting (n = 12)...")
	model, rep, err := repro.Fit(syn.Data, repro.FitOptions{
		NumPoles: 12, Iterations: 6, Weights: xi, ConstrainD: 0.999,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fit RMS (weighted): %.3g\n", rep.RMSErr)

	check := repro.CheckOptions{Method: repro.CheckSweep, FreqMin: 500, FreqMax: 4e9, SweepPoints: 1200}
	enforce := func(w *repro.Weight) *repro.Macromodel {
		m := model.Clone()
		rep, err := repro.EnforcePassivity(m, repro.EnforceOptions{
			Check: check, Weight: w, ClampD: true, Margin: 2e-5,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  passive in %d iterations\n", rep.Iterations)
		return m
	}

	fmt.Println("standard enforcement...")
	mStd := enforce(nil)
	fmt.Println("sensitivity-weighted enforcement...")
	mW := enforce(weight)

	zStd, _ := repro.TargetImpedanceModel(mStd, freqs, syn.Load)
	zW, _ := repro.TargetImpedanceModel(mW, freqs, syn.Load)

	fmt.Println("\n|Z_PDN| comparison (Ω):")
	fmt.Printf("%12s %12s %12s %12s\n", "freq", "nominal", "standard", "weighted")
	for _, f := range []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 2e9} {
		i := nearest(freqs, f)
		fmt.Printf("%12.3g %12.4g %12.4g %12.4g\n",
			freqs[i], cmplx.Abs(zref[i]), cmplx.Abs(zStd[i]), cmplx.Abs(zW[i]))
	}

	worst := func(z []complex128) float64 {
		mx := 0.0
		for i, f := range freqs {
			if f == 0 || f > 1e7 {
				continue
			}
			r := cmplx.Abs(z[i]-zref[i]) / cmplx.Abs(zref[i])
			if r > mx {
				mx = r
			}
		}
		return mx
	}
	fmt.Printf("\nworst relative deviation below 10 MHz: standard %.2f, weighted %.2f\n",
		worst(zStd), worst(zW))
	fmt.Println("(the paper's Fig. 5: the standard model deviates by an order of magnitude;")
	fmt.Println(" the weighted model stays on the nominal curve)")
}

func nearest(freqs []float64, f float64) int {
	best, bd := 0, -1.0
	for i, v := range freqs {
		d := v - f
		if d < 0 {
			d = -d
		}
		if bd < 0 || d < bd {
			best, bd = i, d
		}
	}
	return best
}
