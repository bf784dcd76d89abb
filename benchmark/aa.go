package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// runAA measures the benchmark against itself: two sets, A and B, of k
// full runs of this binary on one workload, interleaved A B A B …, run i
// of either set with seed cfg.seed+i. For every end-to-end metric it
// prints both medians, both quartile spreads (Q3−Q1 over the median) and
// how much worse B's median is than A's, and fails if a spread or the gap
// exceeds the metric's bound — the test a driver applies to two sets of
// runs of unchanged code.
func runAA(cfg config, k int) error {
	if k < 3 {
		return fmt.Errorf("-aa needs at least 3 runs per set for quartiles")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.traceDir, "aa-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	sets := [2]map[string][]float64{{}, {}}
	for i := 0; i < k; i++ {
		for s := range sets {
			out := filepath.Join(dir, "run.json")
			cmd := exec.Command(self,
				"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.Itoa(cfg.seconds), "-out", out)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("set %c run %d: %w", 'A'+s, i+1, err)
			}
			blob, err := os.ReadFile(out)
			if err != nil {
				return err
			}
			var rep report
			if err := json.Unmarshal(blob, &rep); err != nil {
				return err
			}
			// Diagnostics too: the undeclared timings are tabulated below
			// without a verdict.
			for _, m := range append(rep.Metrics, rep.Diagnostics...) {
				sets[s][m.Name] = append(sets[s][m.Name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "aa: %s set %c run %d/%d done\n", cfg.workload, 'A'+s, i+1, k)
		}
	}

	h := fingerprint()
	fmt.Printf("A/A %s: 2 sets of %d runs, seeds %d..%d, window %d s; nproc=%d gomaxprocs=%d %s %q commit=%s\n",
		cfg.workload, k, cfg.seed, cfg.seed+int64(k)-1, cfg.seconds, h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
	fmt.Printf("| %-16s | %-5s | %12s | %8s | %12s | %8s | %8s | %5s | %-6s |\n",
		"metric", "unit", "median A", "spread A", "median B", "spread B", "B vs A", "bound", "")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	breached := false
	for _, d := range endToEnd {
		ma, sa := medianSpread(sets[0][d.name])
		mb, sb := medianSpread(sets[1][d.name])
		// gap is how much worse B's median is than A's, as a share of A's.
		gap := (mb - ma) / ma
		if d.better == "higher" {
			gap = -gap
		}
		verdict := "ok"
		// setup_s is held to its bound on the gap only: a driver reports
		// its spread but does not gate on it.
		if gap > d.bound || (d.name != "setup_s" && (sa > d.bound || sb > d.bound)) {
			verdict, breached = "BREACH", true
		}
		fmt.Printf("| %-16s | %-5s | %12.4f | %7.2f%% | %12.4f | %7.2f%% | %+7.2f%% | %4.0f%% | %-6s |\n",
			d.name, d.unit, ma, 100*sa, mb, 100*sb, 100*gap, 100*d.bound, verdict)
	}
	// The timings no bound is declared for, so that every A/A table shows
	// by how much they moved between two sets of runs of the same binary.
	for _, t := range timings {
		if _, declared := findDecl(endToEnd, t.name); declared {
			continue
		}
		ma, sa := medianSpread(sets[0][t.name])
		mb, sb := medianSpread(sets[1][t.name])
		gap := (mb - ma) / ma
		if t.better == "higher" {
			gap = -gap
		}
		fmt.Printf("| %-16s | %-5s | %12.4f | %7.2f%% | %12.4f | %7.2f%% | %+7.2f%% | %5s | %-6s |\n",
			t.name, t.unit, ma, 100*sa, mb, 100*sb, 100*gap, "-", "diag")
	}
	if breached {
		return fmt.Errorf("%s: two sets of runs of the same binary disagree beyond the benchmark's bounds", cfg.workload)
	}
	return nil
}

// medianSpread returns the median of vs and the distance between its first
// and third quartiles as a share of the median. The quartiles are the
// "exclusive" ones Python's statistics.quantiles(vs, n=4) returns.
func medianSpread(vs []float64) (med, spread float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		i := int(pos)
		switch {
		case pos <= 0:
			return s[0]
		case i >= len(s)-1:
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	med = q(0.5)
	return med, (q(0.75) - q(0.25)) / med
}
