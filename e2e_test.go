package mlvfpga

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mlvfpga/internal/scenario"
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

// buildCLIs builds the two binaries, mlv and mlv-serve, into a temporary
// directory and returns it.
func buildCLIs(t *testing.T) string {
	bin := t.TempDir()
	for _, tool := range []string{"mlv", "mlv-serve"} {
		build := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	return bin
}

// TestCLISmoke runs each mlv subcommand's cheapest invocation once — the
// offline tools, the evaluation, the scenario runner and the two clients
// of a running server — along with mlv's refusal of a name it does not
// know, of a netlist that connects an undeclared port and of malformed
// client arguments, and mlv-serve's refusal of its removed flag.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke is slow under -short")
	}
	bin := buildCLIs(t)
	report := filepath.Join(t.TempDir(), "r.json")
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
		name string // the binary's name before it became a subcommand
		tool string
		args []string
		exit int
		want string
	}{
		{"mlv-decompose", "mlv", []string{"decompose", "-tiles", "2"}, 0, "data-path tree"},
		{"mlv-partition", "mlv", []string{"partition", "-tiles", "2", "-n", "1"}, 0, "partition tree"},
		{"mlv-compile", "mlv", []string{"compile", "-tiles", "2", "-n", "1"}, 0, "mapping results"},
		{"mlv-sim", "mlv", []string{"sim", "-set", "1", "-tasks", "40"}, 0, "baseline (AS ISA only)"},
		{"mlv-bench", "mlv", []string{"repro", "-only", "table2"}, 0, "BW-V37"},
		{"mlv-asm", "mlv", []string{"asm", "-check", asm}, 0, "no issues"},
		{"unknown-experiment", "mlv", []string{"repro", "-only", "bogus"}, 2, "table2|table3|table4|fig11|fig12|compile|ibuf|ablation|load|numerics|policy"},
		{"mlv-scenario-check", "mlv", []string{"scenario", "check", "testdata/scenarios/smoke.mlw"}, 0, "OK"},
		{"mlv-scenario-run", "mlv", []string{"scenario", "run", "-out", report, "testdata/scenarios/smoke.mlw"}, 0, "PASS"},
		{"scenario-without-verb", "mlv", []string{"scenario"}, 2, "usage: mlv scenario run"},
		{"sign-without-path", "mlv", []string{"sign", "-tenant", "a", "-key", "k"}, 2, "usage: mlv sign"},
		{"cluster-half-credentials", "mlv", []string{"cluster", "-tenant", "x", "devices"}, 1, "-tenant and -key must be given together"},
		{"unknown-subcommand", "mlv", []string{"bogus"}, 2, "asm|decompose|partition|compile|sim|repro|scenario|sign|cluster"},
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
			if c.name == "mlv-scenario-run" {
				var rep scenario.Report
				data, err := os.ReadFile(report)
				if err == nil {
					err = json.Unmarshal(data, &rep)
				}
				if err != nil || rep.Spec != "smoke.mlw" {
					t.Errorf("report %s: %v (spec %q)", report, err, rep.Spec)
				}
			}
		})
	}
}

// TestSignedClientsAgainstGuard checks that a signature the CLI makes is
// one the guard accepts: it starts mlv-serve with an admin and a
// non-admin tenant and drives it with `mlv sign` and `mlv cluster`.
func TestSignedClientsAgainstGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server; slow under -short")
	}
	bin := buildCLIs(t)
	tenants := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(tenants, []byte(`{"tenants": [
		{"id": "root", "key": "root-secret", "admin": true},
		{"id": "alice", "key": "alice-secret"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	srv := exec.Command(filepath.Join(bin, "mlv-serve"), "-addr", addr, "-tenants", tenants, "-tick", "0")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Process.Kill(); srv.Wait() })
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mlv-serve did not come up on %s: %v", addr, err)
		}
	}

	mlv := func(wantExit int, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, "mlv"), args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, _ := cmd.Output()
		if code := cmd.ProcessState.ExitCode(); code != wantExit {
			t.Fatalf("mlv %s: exit %d, want %d\n%s%s", strings.Join(args, " "), code, wantExit, out, stderr.String())
		}
		return string(out) + stderr.String()
	}

	body := `{"kind":"LSTM","hidden":64,"timesteps":2}`
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/deploy", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(mlv(0, "sign", "-tenant", "alice", "-key", "alice-secret",
		"-path", "/deploy", "-body", body, "-format", "headers")), "\n") {
		name, value, _ := strings.Cut(line, ": ")
		req.Header.Set(name, value)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy signed by mlv sign: %s", resp.Status)
	}

	cluster := func(wantExit int, args ...string) string {
		t.Helper()
		return mlv(wantExit, append([]string{"cluster", "-addr", addr}, args...)...)
	}
	root := []string{"-tenant", "root", "-key", "root-secret"}
	deviceZero := func() string {
		t.Helper()
		for _, line := range strings.Split(cluster(0, "devices"), "\n") {
			if f := strings.Fields(line); len(f) > 3 && f[0] == "0" {
				return f[3]
			}
		}
		t.Fatal("devices lists no device 0")
		return ""
	}
	if out := cluster(1, "drain", "0"); !strings.Contains(out, "401") {
		t.Errorf("unsigned drain: want 401, got %q", out)
	}
	if out := cluster(1, "-tenant", "alice", "-key", "alice-secret", "drain", "0"); !strings.Contains(out, "403") {
		t.Errorf("non-admin drain: want 403, got %q", out)
	}
	if got := deviceZero(); got != "healthy" {
		t.Fatalf("device 0 before drain: %s", got)
	}
	if out := cluster(0, append(root, "drain", "0")...); out != "ok\n" {
		t.Fatalf("signed drain: %q", out)
	}
	if got := deviceZero(); got != "draining" {
		t.Errorf("device 0 after drain: %s, want draining", got)
	}
	if out := cluster(0, append(root, "undrain", "0")...); out != "ok\n" {
		t.Fatalf("signed undrain: %q", out)
	}
	if got := deviceZero(); got != "healthy" {
		t.Errorf("device 0 after undrain: %s, want healthy", got)
	}
}
