package mlvfpga

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRun builds and runs every example end to end, asserting
// clean exits and a recognizable line of output. This is the "does a new
// user's first command work" check.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are slow under -short")
	}
	cases := []struct {
		dir  string
		want string
	}{
		{"examples/quickstart", "max |err| vs float64 reference"},
		{"examples/lstm-inference", "modelled latency"},
		{"examples/multi-tenant-cloud", "throughput gain"},
		{"examples/scaleout-overlap", "Fig. 11 sweep"},
	}
	bin := t.TempDir()
	for _, c := range cases {
		c := c
		t.Run(filepath.Base(c.dir), func(t *testing.T) {
			t.Parallel()
			exe := filepath.Join(bin, filepath.Base(c.dir))
			build := exec.Command("go", "build", "-o", exe, "./"+c.dir)
			build.Env = os.Environ()
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			out, err := exec.Command(exe).CombinedOutput()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("output missing %q:\n%s", c.want, out)
			}
		})
	}
}

// TestCLISmoke runs each CLI tool's cheapest invocation — the five offline
// tools are subcommands of one mlv binary, built once — the two front
// doors' refusal of a name they do not know, mlv's refusal of a netlist
// that connects an undeclared port, and mlv-serve's of its removed flag.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke is slow under -short")
	}
	bin := t.TempDir()
	for _, tool := range []string{"mlv", "mlv-bench", "mlv-serve"} {
		build := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	asm := filepath.Join(t.TempDir(), "p.asm")
	if err := os.WriteFile(asm, []byte("v_const r0, 0\nend_chain\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	badRTL := filepath.Join(t.TempDir(), "bad.v")
	if err := os.WriteFile(badRTL, []byte(`module sub(input a, output y);
  assign y = a;
endmodule
module top(input x, output z);
  wire m;
  sub u0 (.a(x), .y(m));
  sub u1 (.a(m), .nosuch(z));
endmodule
`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string // the tool's name before the five became subcommands
		tool string
		args []string
		exit int
		want string
	}{
		{"mlv-decompose", "mlv", []string{"decompose", "-tiles", "2"}, 0, "data-path tree"},
		{"mlv-partition", "mlv", []string{"partition", "-tiles", "2", "-n", "1"}, 0, "partition tree"},
		{"mlv-compile", "mlv", []string{"compile", "-tiles", "2", "-n", "1"}, 0, "mapping results"},
		{"mlv-sim", "mlv", []string{"sim", "-set", "1", "-tasks", "40"}, 0, "baseline (AS ISA only)"},
		{"mlv-bench", "mlv-bench", []string{"-only", "table2"}, 0, "BW-V37"},
		{"mlv-asm", "mlv", []string{"asm", "-check", asm}, 0, "no issues"},
		{"unknown-experiment", "mlv-bench", []string{"-only", "bogus"}, 2, "table2|table3|table4|fig11|fig12|compile|ibuf|ablation|load|numerics|policy"},
		{"unknown-subcommand", "mlv", []string{"bogus"}, 2, "asm|decompose|partition|compile|sim"},
		{"undeclared-port", "mlv", []string{"decompose", "-rtl", badRTL, "-top", "top"}, 1, `top.u1: no port "nosuch" on module sub`},
		{"removed-heartbeat-flag", "mlv-serve", []string{"-heartbeat", "1s"}, 2, "flag provided but not defined: -heartbeat"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(filepath.Join(bin, c.tool), c.args...)
			out, err := cmd.CombinedOutput()
			if code := cmd.ProcessState.ExitCode(); code != c.exit {
				t.Fatalf("exit %d (%v), want %d\n%s", code, err, c.exit, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("output missing %q:\n%s", c.want, out)
			}
		})
	}
}
