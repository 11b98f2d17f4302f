package cli

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmosopt/internal/core"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/obs"
	"cmosopt/internal/report"
	"cmosopt/internal/wiring"
)

func TestLowPowerJointReport(t *testing.T) {
	var out bytes.Buffer
	if err := LowPower([]string{"-circuit", "s27", "-mode", "joint"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"circuit    s27", "method     joint", "feasible   true",
		"Vdd", "static E", "dynamic E", "total E", "tub bias"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestLowPowerModes(t *testing.T) {
	for _, mode := range []string{"baseline", "multivt"} {
		var out bytes.Buffer
		if err := LowPower([]string{"-circuit", "s27", "-mode", mode, "-M", "8"}, &out); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
	var out bytes.Buffer
	if err := LowPower([]string{"-circuit", "s27", "-mode", "frob"}, &out); err == nil || err.Error() != `unknown -mode "frob"` {
		t.Errorf("unknown mode: err = %v", err)
	}
	// The help text is generated from the one optimizer-mode table.
	out.Reset()
	_ = LowPower([]string{"-h"}, &out)
	if want := "optimizer: joint, baseline, anneal, multivt, dualvdd, sensitivity"; !strings.Contains(out.String(), want) {
		t.Errorf("-mode help lacks %q:\n%s", want, out.String())
	}
}

func TestLowPowerFlagErrors(t *testing.T) {
	cases := [][]string{
		{},                                                 // neither circuit nor bench
		{"-circuit", "nosuch"},                             // unknown benchmark
		{"-circuit", "s27", "-bench", "x"},                 // both sources
		{"-circuit", "s27", "-fc", "0"},                    // bad frequency
		{"-bench", "/nonexistent/file.bench"},              // missing file
		{"-circuit", "s27", "-tech", "/no/way"},            // missing tech file
		{"-circuit", "s27", "-M", "0"},                     // M = 0 is refused, not run at M = 12
		{"-circuit", "s27", "-mode", "anneal", "-M", "0"},  // annealing reads no M
		{"-circuit", "s27", "-mode", "anneal", "-M", "12"}, // not even the default
	}
	for i, args := range cases {
		var out bytes.Buffer
		if err := LowPower(args, &out); err == nil {
			t.Errorf("case %d (%v): accepted", i, args)
		}
	}
	// NaN input statistics must fail activity validation, not end a whole
	// search as infeasible.
	for _, args := range [][]string{
		{"-circuit", "s27", "-activity", "nan"},
		{"-circuit", "s27", "-prob", "nan"},
	} {
		var out bytes.Buffer
		if err := LowPower(args, &out); err == nil || !strings.Contains(err.Error(), "activity:") {
			t.Errorf("%v: error %v, want an activity validation error", args, err)
		}
	}
}

// Every command that takes -fc refuses a clock that is not positive, not
// finite or above MaxClockHz, before it loads anything: the circuit, design
// and netlist named here do not exist.
func TestClockFlagRejected(t *testing.T) {
	commands := []struct {
		name string
		run  func([]string, io.Writer) error
		args []string
	}{
		{"lowpower", LowPower, []string{"-circuit", "nosuch"}},
		{"eco", ECO, []string{"-design", "/no/design.json", "-prev", "/no/prev.bench", "-circuit", "nosuch"}},
		{"verify", Verify, []string{"-design", "/no/design.json", "-circuit", "nosuch"}},
	}
	for _, cmd := range commands {
		for _, tc := range []struct{ fc, want string }{
			{"2e12", "-fc 2e+12 Hz above the 1e+12 Hz ceiling"},
			{"+Inf", "-fc +Inf Hz above the 1e+12 Hz ceiling"},
			{"0", "-fc 0 must be positive"},
			{"-3e8", "-fc -3e+08 must be positive"},
			{"NaN", "-fc NaN must be positive"},
		} {
			var out bytes.Buffer
			err := cmd.run(append([]string{"-fc", tc.fc}, cmd.args...), &out)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s -fc %s: error %v, want %q", cmd.name, tc.fc, err, tc.want)
			}
		}
	}
}

func TestSaveVerifyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	designPath := filepath.Join(dir, "d.json")
	var out bytes.Buffer
	if err := LowPower([]string{"-circuit", "s27", "-save", designPath}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(designPath); err != nil {
		t.Fatalf("design not written: %v", err)
	}
	out.Reset()
	if err := Verify([]string{"-design", designPath, "-circuit", "s27"}, &out); err != nil {
		t.Fatalf("verify: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "TIMING PASS") {
		t.Errorf("missing pass marker:\n%s", out.String())
	}
	// The same design must fail sign-off at a doubled clock.
	out.Reset()
	if err := Verify([]string{"-design", designPath, "-circuit", "s27", "-fc", "6e8"}, &out); err == nil {
		t.Error("doubled clock passed sign-off")
	}
	if !strings.Contains(out.String(), "TIMING FAIL") {
		t.Errorf("missing fail marker:\n%s", out.String())
	}
}

// Sign-off re-times a saved joint design with the reference delay
// evaluator: its critical-delay line, its manifest record and its verdict
// are those of the delay.Evaluator of a problem built apart from the one
// Verify builds.
func TestVerifySignsOffWithReferenceEvaluator(t *testing.T) {
	dir := t.TempDir()
	designPath := filepath.Join(dir, "d.json")
	manifestPath := filepath.Join(dir, "verify.json")
	var out bytes.Buffer
	if err := LowPower([]string{"-circuit", "s298", "-mode", "joint", "-save", designPath}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := Verify([]string{"-design", designPath, "-circuit", "s298", "-metrics", manifestPath}, &out); err != nil {
		t.Fatalf("verify: %v\n%s", err, out.String())
	}

	c, err := LoadCircuit("s298", "")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(core.Spec{
		Circuit: c, Tech: device.Default350(), Wiring: wiring.Default350(),
		Fc: 300e6, Skew: 0.95, InputProb: 0.5, InputDensity: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(designPath)
	if err != nil {
		t.Fatal(err)
	}
	a, err := design.Load(f, p.C)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	cd, budget := p.Eval.DelayModel().CriticalDelay(a), p.CycleBudget()
	if cd > budget {
		t.Fatalf("reference critical delay %v exceeds the budget %v", cd, budget)
	}
	line := fmt.Sprintf("critical delay %s (budget %s)\n", report.Eng(cd, "s"), report.Eng(budget, "s"))
	if !strings.Contains(out.String(), line) || !strings.Contains(out.String(), "TIMING PASS") {
		t.Errorf("verify output lacks %q and TIMING PASS:\n%s", line, out.String())
	}
	man, err := obs.ReadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Results) != 1 || man.Results[0].CriticalDelayS != cd || !man.Results[0].Feasible {
		t.Errorf("manifest results %+v, want one feasible record with critical delay %v", man.Results, cd)
	}
}

func TestVerifyFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := Verify([]string{"-circuit", "s27"}, &out); err == nil {
		t.Error("missing -design accepted")
	}
	if err := Verify([]string{"-design", "/no/file", "-circuit", "s27"}, &out); err == nil {
		t.Error("missing design file accepted")
	}
}

func TestTablesFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-activities", "0.5abc"}, `bad activity "0.5abc"`}, // trailing garbage
		{[]string{"-activities", "0.1,"}, `bad activity ""`},         // empty token
		{[]string{"-table", "nosuch"}, `unknown -table "nosuch"`},
		{[]string{"-table", "multivt", "-circuits", "s27", "-M", "0"}, "M = 0 outside [1,64]"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if err := Tables(c.args, &out); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want %q", c.args, err, c.want)
		}
	}
}

func TestLowPowerWithBenchFileAndTechFile(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "t.bench")
	netlist := `
INPUT(a)
INPUT(b)
OUTPUT(y)
g = NAND(a, b)
y = NOT(g)
`
	if err := os.WriteFile(benchPath, []byte(netlist), 0o644); err != nil {
		t.Fatal(err)
	}
	techPath := filepath.Join(dir, "t.tech")
	if err := os.WriteFile(techPath, []byte("name = test\nksat = 3e-5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := LowPower([]string{"-bench", benchPath, "-tech", techPath, "-fc", "1e8"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "feasible   true") {
		t.Errorf("expected feasible run:\n%s", out.String())
	}
}

func TestLowPowerWithVerilogFile(t *testing.T) {
	dir := t.TempDir()
	vPath := filepath.Join(dir, "t.v")
	src := `
module t (a, b, y);
  input a, b;
  output y;
  wire g;
  nand u1 (g, a, b);
  not  u2 (y, g);
endmodule
`
	if err := os.WriteFile(vPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := LowPower([]string{"-bench", vPath, "-fc", "1e8"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "circuit    t ") {
		t.Errorf("module name missing:\n%s", out.String())
	}
}

func TestECOFlow(t *testing.T) {
	dir := t.TempDir()
	oldBench := filepath.Join(dir, "old.bench")
	newBench := filepath.Join(dir, "new.bench")
	oldNetlist := `
INPUT(a)
INPUT(b)
OUTPUT(y)
g1 = NAND(a, b)
g2 = NOT(g1)
y = NOT(g2)
`
	// The edit adds one observer gate.
	newNetlist := oldNetlist + "OUTPUT(z)\nz = XOR(g1, g2)\n"
	if err := os.WriteFile(oldBench, []byte(oldNetlist), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newBench, []byte(newNetlist), 0o644); err != nil {
		t.Fatal(err)
	}
	designPath := filepath.Join(dir, "old.json")
	var out bytes.Buffer
	if err := LowPower([]string{"-bench", oldBench, "-fc", "1e8", "-save", designPath}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	newDesign := filepath.Join(dir, "new.json")
	if err := ECO([]string{"-design", designPath, "-prev", oldBench, "-bench", newBench,
		"-fc", "1e8", "-save", newDesign}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "reused     3/4") {
		t.Errorf("expected 3/4 gates reused:\n%s", s)
	}
	if !strings.Contains(s, "feasible   true") {
		t.Errorf("ECO result infeasible:\n%s", s)
	}
	// The updated design verifies against the edited netlist.
	out.Reset()
	if err := Verify([]string{"-design", newDesign, "-bench", newBench, "-fc", "1e8"}, &out); err != nil {
		t.Fatalf("verify after ECO: %v\n%s", err, out.String())
	}
}

func TestECOFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := ECO([]string{"-design", "x.json"}, &out); err == nil {
		t.Error("missing -prev accepted")
	}
	if err := ECO([]string{"-prev", "x.bench"}, &out); err == nil {
		t.Error("missing -design accepted")
	}
}
