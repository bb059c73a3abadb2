// Command pdnflow runs the complete reliable macromodeling flow of the
// paper on scattering data: sensitivity-weighted rational fitting followed
// by sensitivity-weighted passivity enforcement under a nominal PDN
// termination network.
//
// Input is either a Touchstone file (-in data.s45p, with -die/-decap/-vrm
// port lists) or a bundled synthetic PDN (-synth paper45|small). The final
// passive macromodel is written as JSON together with a flow report.
//
// Usage examples:
//
//	pdnflow -synth small -poles 10 -out model.json
//	pdnflow -in board.s8p -die 0,1,2,3 -decap 4,5 -vrm 6 -out model.json
package main

import (
	"flag"
	"fmt"
	"math/cmplx"
	"os"
	"strconv"
	"strings"
	"time"

	repro "repro"
)

func main() {
	in := flag.String("in", "", "Touchstone input file (.sNp)")
	synth := flag.String("synth", "", "use a synthetic PDN instead: paper45 or small")
	points := flag.Int("points", 201, "frequency points for synthetic data")
	poles := flag.Int("poles", 12, "macromodel order n")
	worder := flag.Int("worder", 8, "sensitivity weight order n_w")
	dieS := flag.String("die", "", "comma-separated die port indices (Touchstone input)")
	decapS := flag.String("decap", "", "comma-separated decap port indices")
	vrmS := flag.String("vrm", "", "VRM port index")
	out := flag.String("out", "model.json", "output macromodel (JSON)")
	unweighted := flag.Bool("unweighted", false, "disable sensitivity weighting everywhere (baseline flow)")
	flag.Parse()

	var data *repro.SData
	var load *repro.Load
	switch {
	case *synth != "":
		preset := repro.PDNSmall
		if strings.EqualFold(*synth, "paper45") {
			preset = repro.PDNPaper45
		}
		freqs := repro.LogFreqGrid(1e3, 2e9, *points, true)
		syn, err := repro.GeneratePDN(preset, freqs, 50)
		fatal(err)
		data, load = syn.Data, syn.Load
		fmt.Printf("synthetic %s: %d ports, %d frequency points\n", *synth, data.Ports(), data.Points())
	case *in != "":
		var err error
		data, err = repro.ReadTouchstone(*in, 0)
		fatal(err)
		load, err = buildLoad(data.Ports(), *dieS, *decapS, *vrmS)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdnflow:", err)
			flag.Usage()
			os.Exit(2)
		}
		fmt.Printf("%s: %d ports, %d frequency points\n", *in, data.Ports(), data.Points())
	default:
		fmt.Fprintln(os.Stderr, "pdnflow: need -in or -synth")
		os.Exit(2)
	}

	t0 := time.Now()
	res, err := repro.Extract(data, load, repro.ExtractOptions{
		NumPoles:              *poles,
		WeightOrder:           *worder,
		UnweightedFit:         *unweighted,
		UnweightedEnforcement: *unweighted,
	})
	fatal(err)

	fmt.Printf("fit: RMS %.3g, max %.3g\n", res.Fit.RMSErr, res.Fit.MaxAbsErr)
	if res.Before.Passive {
		fmt.Println("fitted model already passive")
	} else {
		fmt.Printf("violations before enforcement: σmax=%.6f at %.4g Hz (%d bands)\n",
			res.Before.MaxSigma, res.Before.MaxFreqHz, len(res.Before.Violations))
		fmt.Printf("enforcement: passive=%v in %d iterations (D clamped: %v)\n",
			res.Enforcement.Passive, res.Enforcement.Iterations, res.Enforcement.DClamped)
	}
	zref, err := repro.TargetImpedance(data, load)
	fatal(err)
	zmod, err := repro.TargetImpedanceModel(res.Model, data.Freq, load)
	fatal(err)
	worst := 0.0
	for i := range zref {
		if data.Freq[i] == 0 {
			continue
		}
		r := cmplx.Abs(zmod[i]-zref[i]) / (1e-15 + cmplx.Abs(zref[i]))
		if r > worst {
			worst = r
		}
	}
	fmt.Printf("target impedance worst rel deviation: %.3g\n", worst)
	fatal(res.Model.SaveFile(*out))
	fmt.Printf("model written to %s (%.1fs total)\n", *out, time.Since(t0).Seconds())
}

// buildLoad builds the nominal termination of a ports-port Touchstone
// model from the -die, -decap and -vrm port lists. A port index that does
// not parse or lies outside 0..ports−1 is an error.
func buildLoad(ports int, dieS, decapS, vrmS string) (*repro.Load, error) {
	die, err := parseList("-die", dieS, ports)
	if err != nil {
		return nil, err
	}
	decap, err := parseList("-decap", decapS, ports)
	if err != nil {
		return nil, err
	}
	vrm, err := parseList("-vrm", vrmS, ports)
	if err != nil {
		return nil, err
	}
	terms := make([]repro.Termination, ports)
	for i := range terms {
		terms[i] = repro.OpenPort()
	}
	for _, p := range die {
		terms[p] = repro.DieLoad(0.08, 40e-9)
	}
	models := []repro.Termination{
		repro.DecapLoad(100e-9, 20e-3, 0.6e-9),
		repro.DecapLoad(1e-6, 10e-3, 0.8e-9),
		repro.DecapLoad(10e-6, 5e-3, 1.2e-9),
	}
	for k, p := range decap {
		terms[p] = models[k%len(models)]
	}
	for _, p := range vrm {
		terms[p] = repro.ShortPort()
	}
	j := make([]complex128, ports)
	for _, p := range die {
		j[p] = complex(1/float64(len(die)), 0)
	}
	obs := 0
	if len(die) > 0 {
		obs = die[0]
	}
	return &repro.Load{Terms: terms, J: j, ObsPort: obs}, nil
}

// parseList parses the value s of flag name, a comma-separated list of
// port indices in 0..ports−1.
func parseList(name, s string, ports int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if v < 0 || v >= ports {
			return nil, fmt.Errorf("%s: port %d out of range: the model has ports 0..%d", name, v, ports-1)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdnflow:", err)
		os.Exit(1)
	}
}
