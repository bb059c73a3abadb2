// Classical model order reduction as a baseline: the paper's introduction
// contrasts black-box identification (Vector Fitting) with projection /
// truncation MOR of an existing model ([6], [7]). This example overfits a
// PDN on purpose, compresses the result by balanced truncation to the size
// of a direct low-order fit, and compares the two — including the passivity
// repair that truncation makes necessary.
//
// Run with: go run ./examples/mor-baseline
package main

import (
	"fmt"
	"log"
	"math/cmplx"

	repro "repro"
)

func main() {
	freqs := repro.LogFreqGrid(1e3, 2e9, 120, true)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		log.Fatal(err)
	}
	ports := syn.Data.Ports()

	// Direct black-box identification at the working order.
	direct, _, err := repro.Fit(syn.Data, repro.FitOptions{NumPoles: 12, Iterations: 8, ConstrainD: 0.999})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("direct VF   : 12 poles (%d states), RMS %.3g\n", 12*ports, direct.RMSError(syn.Data))

	// Overfit, then compress with balanced truncation to the same state
	// budget.
	big, _, err := repro.Fit(syn.Data, repro.FitOptions{NumPoles: 20, Iterations: 8, ConstrainD: 0.999})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overfit VF  : 20 poles (%d states), RMS %.3g\n", 20*ports, big.RMSError(syn.Data))

	red, rep, err := repro.ReduceModel(big, 12*ports)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("balanced truncation: kept %d states, H∞ bound %.3g, RMS %.3g\n",
		rep.Order, rep.Bound, red.RMSError(syn.Data))
	fmt.Printf("Hankel decay: σ1 = %.3g … σ%d = %.3g\n",
		rep.Hankel[0], len(rep.Hankel), rep.Hankel[len(rep.Hankel)-1])

	// Truncation does not preserve passivity — the reduced model goes
	// through the same enforcement machinery as a fitted one.
	chk, err := repro.CheckPassivity(red, repro.CheckOptions{Method: repro.CheckSweep, FreqMin: 500, FreqMax: 4e9, SweepPoints: 800})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reduced model passive: %v (σmax = %.6f)\n", chk.Passive, chk.MaxSigma)
	if !chk.Passive {
		enf, err := repro.EnforcePassivity(red, repro.EnforceOptions{
			Check:  repro.CheckOptions{Method: repro.CheckSweep, FreqMin: 500, FreqMax: 4e9, SweepPoints: 800},
			ClampD: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("repaired in %d iterations (σmax now %.6f)\n", enf.Iterations, enf.Final.MaxSigma)
	}

	// The verdict, in the norm that matters: the loaded target impedance.
	zref, err := repro.TargetImpedance(syn.Data, syn.Load)
	if err != nil {
		log.Fatal(err)
	}
	zDirect, err := repro.TargetImpedanceModel(direct, freqs, syn.Load)
	if err != nil {
		log.Fatal(err)
	}
	zRed, err := repro.TargetImpedanceModel(red, freqs, syn.Load)
	if err != nil {
		log.Fatal(err)
	}
	var worstDirect, worstRed float64
	for k := range zref {
		if freqs[k] == 0 {
			continue
		}
		ref := cmplx.Abs(zref[k])
		if d := cmplx.Abs(zDirect[k]-zref[k]) / ref; d > worstDirect {
			worstDirect = d
		}
		if d := cmplx.Abs(zRed[k]-zref[k]) / ref; d > worstRed {
			worstRed = d
		}
	}
	fmt.Printf("worst relative Z_PDN error: direct VF %.3g, reduced %.3g\n", worstDirect, worstRed)
}
