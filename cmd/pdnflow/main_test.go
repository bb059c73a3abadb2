package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	repro "repro"
)

// TestMain runs main itself when PDNFLOW_RUN_MAIN is set, so a test can
// drive the command in a subprocess and read its exit code.
func TestMain(m *testing.M) {
	if os.Getenv("PDNFLOW_RUN_MAIN") == "1" {
		os.Args = append([]string{"pdnflow"}, strings.Fields(os.Getenv("PDNFLOW_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestBuildLoadRejectsBadPorts(t *testing.T) {
	for _, c := range []struct{ die, decap, vrm, want string }{
		{"0,9", "", "", "-die: port 9 out of range"},
		{"0,8", "", "", "-die: port 8 out of range"},
		{"-1", "", "", "-die: port -1 out of range"},
		{"0", "4,12", "", "-decap: port 12 out of range"},
		{"0", "", "-3", "-vrm: port -3 out of range"},
		{"0,x", "", "", "-die: strconv.Atoi"},
	} {
		if _, err := buildLoad(8, c.die, c.decap, c.vrm); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("buildLoad(8, %q, %q, %q) = %v, want an error containing %q", c.die, c.decap, c.vrm, err, c.want)
		}
	}
	load, err := buildLoad(8, "0,1,2,3", "4,5", "7")
	if err != nil {
		t.Fatal(err)
	}
	if len(load.Terms) != 8 || load.ObsPort != 0 || load.J[3] != 0.25 {
		t.Fatalf("valid port lists: terms %d, obs %d, J[3] %v", len(load.Terms), load.ObsPort, load.J[3])
	}
}

// TestOutOfRangePortExitsTwo: pdnflow with a port index past the model's
// ports exits 2 with a message and the usage text instead of panicking.
func TestOutOfRangePortExitsTwo(t *testing.T) {
	dir := t.TempDir()
	syn, err := repro.GeneratePDN(repro.PDNSmall, repro.LogFreqGrid(1e3, 2e9, 11, true), 50)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "pdn.s8p")
	if err := repro.WriteTouchstone(in, syn.Data); err != nil {
		t.Fatal(err)
	}
	for _, flags := range []string{"-die 0,9", "-die 0 -decap -1", "-die 0 -vrm 8"} {
		cmd := exec.Command(os.Args[0], "-test.run", "^$")
		cmd.Env = append(os.Environ(), "PDNFLOW_RUN_MAIN=1",
			"PDNFLOW_ARGS=-in "+in+" "+flags+" -out "+filepath.Join(dir, "model.json"))
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%s: err = %v, want exit status 2; output:\n%s", flags, err, out)
		}
		if !strings.Contains(string(out), "out of range") || !strings.Contains(string(out), "Usage") {
			t.Fatalf("%s: output lacks the error or the usage text:\n%s", flags, out)
		}
		if strings.Contains(string(out), "panic:") {
			t.Fatalf("%s: panicked:\n%s", flags, out)
		}
	}
}
