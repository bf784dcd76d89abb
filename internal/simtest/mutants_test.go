package simtest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/build"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mutant is one deliberate bug, kept out of the product: the single
// occurrence of orig in file becomes repl, and the tests that run selects
// in pkg must then fail with want in their output. The product carries no
// switch for it; the bug exists only in an overlay for one nested
// `go test` (mutation analysis: a check earns its place by failing on
// the bug it names). A simtest row's report must also shrink its failing
// schedule: to exactly minimal events, the length measured when the row
// was committed, or, where minimal is 0, to fewer events than failed. A
// row whose failure needs an eviction or a transplant has minimal 0: the
// eviction count rides goroutine timing and stays out of the trace, so
// which candidate schedules reproduce, and the shrunk length, vary from
// run to run.
type mutant struct {
	name       string
	file       string // relative to the module root
	orig, repl string
	pkg, run   string
	want       string
	minimal    int
}

const (
	simtestPkg = "./internal/simtest"
	sweepRun   = "^TestSimSweep$" // 4 seeds × 120 events under -short
)

// mutants lists every bug class an invariant checker or lifecycle test
// claims to catch.
var mutants = []mutant{
	{
		// Release retires the record but never stops its engine.
		name: "release-keeps-engine",
		file: "internal/rms/service.go",
		orig: "\t\te.close()\n", repl: "\n",
		pkg: "./internal/rms", run: "^TestInferUnknownAndReleasedLease$",
		want: "engine captured before Release took a submit after it",
	},
	{
		// A lease's pool ignores its depth: one piece's worth of machines
		// at any depth.
		name: "pool-ignores-depth",
		file: "internal/rms/infer.go",
		orig: "\topts.Machines *= rec.Depth\n", repl: "\n",
		pkg: "./internal/rms", run: "^TestDataPlaneResize$",
		want: "want 2 machines",
	},
	{
		// Every deployed lease builds its engine ahead, served or not.
		name: "prebuild-every-lease",
		file: "internal/scenario/engine.go",
		orig: "\tserved := make([]bool, n)\n",
		repl: "\tserved := make([]bool, n)\n\tfor i := range served {\n\t\tserved[i] = true\n\t}\n",
		pkg:  "./internal/scenario", run: "^TestScenarioBuildsServedLeases$",
		want: "want none",
	},
	{
		// A machine refills an invalidated tile it shares into the set's
		// storage, under every other machine bound to it.
		name: "shared-refill-in-place",
		file: "internal/accel/exec.go",
		orig: "\tif t.shared {\n\t\told = nil\n\t}\n", repl: "\n",
		pkg: "./internal/accel", run: "^TestSharedTileHazard$",
		want: "stepped engine's outputs changed",
	},
	{
		name: "skip-migration-metric",
		file: "internal/cluster/controlplane.go",
		orig: "\tmetrics.Migrations.Add(1)\n", repl: "\n",
		pkg: simtestPkg, run: sweepRun, want: `invariant "counter-conservation"`, minimal: 1,
	},
	{
		name: "skip-tenant-served-metric",
		file: "internal/rms/continuous.go",
		orig: "\t\tmetrics.TenantServed.Add(req.tenant, 1)\n", repl: "\n",
		pkg: simtestPkg, run: sweepRun, want: `invariant "tenant-accounting"`, minimal: 1,
	},
	{
		name: "leak-slot",
		file: "internal/rms/continuous.go",
		orig: "\tmetrics.SlotsActive.Add(-1)\n", repl: "\n",
		pkg: simtestPkg, run: sweepRun, want: `invariant "slot-conservation"`, minimal: 1,
	},
	{
		name: "leak-snapshot",
		file: "internal/rms/preempt.go",
		orig: "\treq.resume = tok\n", repl: "\t_ = tok\n\treq.resume = nil\n",
		pkg: simtestPkg, run: sweepRun, want: `invariant "snapshot-conservation"`,
	},
	{
		name: "restore-at-zero",
		file: "internal/rms/preempt.go",
		orig: "\tsl.tau = int(snap.Tau)\n", repl: "\tsl.tau = 0\n",
		pkg: simtestPkg, run: sweepRun, want: `invariant "golden-equivalence"`,
	},
	{
		// A freed slot never reads as free again: capacity loss.
		name: "lose-slot-capacity",
		file: "internal/rms/continuous.go",
		orig: "\tcm.slots[s] = contSlot{}\n", repl: "\tcm.slots[s] = contSlot{steps: -1}\n",
		pkg: simtestPkg, run: sweepRun, want: `invariant "infer-served"`,
	},
	{
		// The stopper takes each machine without draining it: a plain
		// close abandons what the engine still holds.
		name: "stopper-skips-drain",
		file: "internal/rms/continuous.go",
		orig: "\t\te.steps(cm, nil)\n", repl: "\n",
		pkg: "./internal/rms", run: "^TestCloseWithinGenerousDeadlineIsClose$",
		want: "answered with an error",
	},
	{
		// A caller leaves work behind without handing it to the callers
		// waiting on it.
		name: "drop-baton",
		file: "internal/rms/continuous.go",
		orig: "\t\t\tpost(baton)\n", repl: "\n",
		pkg: "./internal/rms", run: "^TestContinuousHandOff$",
		want: "the second was never handed the machine",
	},
	{
		// A machine admits only into an empty batch: continuous batching
		// degrades to drain-to-empty between cohorts.
		name: "admit-only-when-empty",
		file: "internal/rms/continuous.go",
		orig: "\tif free := e.opts.MaxBatch - cm.occupied; free > 0 {\n",
		repl: "\tif free := e.opts.MaxBatch - cm.occupied; free > 0 && cm.occupied == 0 {\n",
		pkg:  "./internal/rms", run: "^TestContinuousAdmitsIntoRunningBatch$",
		want: "no admissions into a running batch",
	},
	{
		// The last device of a scaled group never receives: a lockstep
		// run must refuse the group, where peers blocked on a barrier
		// would hang it.
		name: "drop-last-device-receives",
		file: "internal/scaleout/group.go",
		orig: "\t\tsg.Progs = append(sg.Progs, InsertSync(k.Prog, sg.SyncCfg))\n",
		repl: "\t\tp := InsertSync(k.Prog, sg.SyncCfg)\n" +
			"\t\tif len(sg.Progs) == n-1 {\n" +
			"\t\t\tkept := p[:0]\n" +
			"\t\t\tfor _, ins := range p {\n" +
			"\t\t\t\tif ins.Op != isa.OpVRead || ins.Imm != uint32(sg.SyncCfg.RecvAddr) {\n" +
			"\t\t\t\t\tkept = append(kept, ins)\n" +
			"\t\t\t\t}\n" +
			"\t\t\t}\n" +
			"\t\t\tp = kept\n" +
			"\t\t}\n" +
			"\t\tsg.Progs = append(sg.Progs, p)\n",
		pkg: "./internal/scaleout", run: "^TestScaledGroupMatchesSingleDevice$",
		want: "scaleout: device 1: 4 sends, 0 receives",
	},
	{
		// A merge keeps the edges between its members as edges of the
		// contracted node.
		name: "merge-keeps-internal-edges",
		file: "internal/decompose/workgraph.go",
		orig: "\t\t\tif !slices.Contains(members, e.node) {\n\t\t\t\tout = g.link(out, e.node, e.bits)\n\t\t\t}\n",
		repl: "\t\t\tout = g.link(out, e.node, e.bits)\n",
		pkg:  "./internal/decompose", run: "^TestWorkGraph$",
		want: "node 4: out [{1 2} {2 16} {3 12}], want [{3 12}]",
	},
	{
		// The guard admits a signed request but lends its body without the
		// tenant it verified: every handler sees an anonymous caller.
		name: "guard-lends-no-identity",
		file: "internal/tenant/auth.go",
		orig: "\t\tbody.who = t\n", repl: "\n",
		pkg: "./internal/tenant", run: "^TestGuardAcceptsSignedRequest$",
		want: `signed request: code 200 body "anon"`,
	},
	{
		// Soft-block shapes compare without their pipelines' stage
		// bandwidths: differently wired pipelines read as copies.
		name: "shape-ignores-stage-bits",
		file: "internal/softblock/softblock.go",
		orig: "\tif !slices.Equal(a.StageBits, b.StageBits) {\n\t\treturn false\n\t}\n", repl: "\n",
		pkg: "./internal/softblock", run: "^TestSameShape$",
		want: "stage bandwidth 8 vs 16: SameShape = true, want false",
	},
}

// apply returns src with the mutation made, or an error naming the file
// and the match count when orig does not occur exactly once.
func (m mutant) apply(src []byte) ([]byte, error) {
	if n := bytes.Count(src, []byte(m.orig)); n != 1 {
		return nil, fmt.Errorf("mutant %s: %s holds its snippet %d times, want exactly 1: %q", m.name, m.file, n, m.orig)
	}
	return bytes.Replace(src, []byte(m.orig), []byte(m.repl), 1), nil
}

var minimizedRE = regexp.MustCompile(`minimized schedule: (\d+) of (\d+) events`)

// verdict judges a nested run's combined output; failed reports that it
// exited non-zero. A nil verdict means the mutant was caught as named.
func (m mutant) verdict(out string, failed bool) error {
	switch {
	case strings.Contains(out, "[build failed]") || strings.Contains(out, "[setup failed]"):
		return fmt.Errorf("broken mutant %s: it does not build, so it proves nothing:\n%s", m.name, out)
	case !failed:
		return fmt.Errorf("mutant %s survived: %s -run %s passed:\n%s", m.name, m.pkg, m.run, out)
	case !strings.Contains(out, m.want):
		return fmt.Errorf("mutant %s failed, but not with %q:\n%s", m.name, m.want, out)
	}
	if m.pkg != simtestPkg {
		return nil
	}
	sm := minimizedRE.FindStringSubmatch(out)
	if sm == nil {
		return fmt.Errorf("mutant %s: no minimized schedule in the report:\n%s", m.name, out)
	}
	k, _ := strconv.Atoi(sm[1])
	n, _ := strconv.Atoi(sm[2])
	if m.minimal > 0 && k != m.minimal {
		return fmt.Errorf("mutant %s: shrank to %d of %d events, not the committed %d:\n%s", m.name, k, n, m.minimal, out)
	}
	if k == 0 || k >= n {
		return fmt.Errorf("mutant %s: shrinking did not reduce the schedule (%d of %d events):\n%s", m.name, k, n, out)
	}
	return nil
}

// TestMutantsAreCaught runs each mutant through the toolchain that built
// this test: the mutated file and an overlay naming it go into a temp
// directory, and `go test -overlay` compiles the bug in without touching
// the tree.
func TestMutantsAreCaught(t *testing.T) {
	// build.Default.GOROOT is runtime.GOROOT(), cleaned, without the
	// deprecation Go 1.24 put on calling it directly.
	gobin := filepath.Join(build.Default.GOROOT, "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		t.Fatalf("the mutant table needs the go command: %v", err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var env []string // mutants write no failure reports
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "SIMTEST_REPORT_DIR=") {
			env = append(env, kv)
		}
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(root, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mutated, err := m.apply(src)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			mutFile := filepath.Join(dir, filepath.Base(m.file))
			overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {path: mutFile}})
			overlayFile := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(mutFile, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(gobin, "test", "-count=1", "-short", "-vet=off",
				"-overlay="+overlayFile, "-run", m.run, m.pkg)
			cmd.Dir, cmd.Env = root, env
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				t.Fatalf("running %v: %v", cmd.Args, err)
			}
			if err := m.verdict(string(out), err != nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMutantRunner holds the table's own rules without a toolchain: a
// snippet must match exactly once, and a mutant that does not build is
// reported as broken, never as caught.
func TestMutantRunner(t *testing.T) {
	m := mutant{name: "probe", file: "internal/x/x.go", orig: "a := 1\n", repl: "a := 2\n",
		pkg: simtestPkg, want: `invariant "probe"`, minimal: 2}
	for _, c := range []struct {
		src, count string
	}{{"b := 1\n", "0 times"}, {"a := 1\na := 1\n", "2 times"}} {
		_, err := m.apply([]byte(c.src))
		if err == nil || !strings.Contains(err.Error(), m.file) || !strings.Contains(err.Error(), c.count) {
			t.Errorf("apply on %q: %v, want an error naming %s and %s", c.src, err, m.file, c.count)
		}
	}
	if got, err := m.apply([]byte("x\na := 1\n")); err != nil || string(got) != "x\na := 2\n" {
		t.Errorf("apply = %q, %v", got, err)
	}

	caught := "seed 1: step 3: invariant \"probe\": drift\nminimized schedule: 2 of 120 events (9 shrink runs):\nFAIL\n"
	for _, c := range []struct {
		out    string
		failed bool
		want   string // substring of the verdict; "" means caught
	}{
		{caught, true, ""},
		{"# mlvfpga/internal/x\nx.go:3:2: declared and not used: a\nFAIL\tmlvfpga/internal/x [build failed]\n" + caught, true, "does not build"},
		{"ok  \tmlvfpga/internal/simtest\t0.5s\n", false, "survived"},
		{"--- FAIL: TestSimSweep\nsome other failure\nFAIL\n", true, "not with"},
		{strings.Replace(caught, "2 of 120", "3 of 120", 1), true, "shrank to 3 of 120 events, not the committed 2"},
		{strings.Replace(caught, "minimized schedule", "schedule", 1), true, "no minimized schedule"},
	} {
		err := m.verdict(c.out, c.failed)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("verdict on %q: %v, want %q", c.out, err, c.want)
		}
	}
	// A row with no committed length takes any shrink that reduced.
	m.minimal = 0
	if err := m.verdict(strings.Replace(caught, "2 of 120", "7 of 120", 1), true); err != nil {
		t.Errorf("verdict at minimal 0 on a 7-event shrink: %v", err)
	}
	if err := m.verdict(strings.Replace(caught, "2 of 120", "120 of 120", 1), true); err == nil || !strings.Contains(err.Error(), "did not reduce") {
		t.Errorf("verdict at minimal 0 on an unshrunk schedule: %v, want \"did not reduce\"", err)
	}
}
