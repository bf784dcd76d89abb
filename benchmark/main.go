// The repository's one benchmark: four workloads, four gated end-to-end
// metrics beside the printed timings and, with -trace, the per-layer
// numbers behind them. See README.md.
//
//	go run ./benchmark -workload serve_compute -seed 1
//	go run ./benchmark -workload fleet_sim -seed 2 -trace
//	go run ./benchmark -workload serve_small -aa 5
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// smokeOps is the fixed per-client op count of a -smoke run.
const smokeOps = 12

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	out      string
	traceDir string
}

// window is the measured window's length; zero selects fixed op counts.
func (c config) window() time.Duration {
	if c.smoke {
		return 0
	}
	return time.Duration(c.seconds) * time.Second
}

// setUps is how many times a run builds its stack from cold.
func (c config) setUps() int {
	if c.smoke {
		return 1
	}
	return setUps
}

func (c config) newReport(res *windowResult) *report {
	r := &report{
		Host: fingerprint(), Workload: c.workload, Seed: c.seed,
		Trace: c.trace, Smoke: c.smoke,
	}
	if res != nil {
		r.WindowSeconds = (res.segLen * time.Duration(len(res.segs))).Seconds()
		r.SegmentSeconds = res.segLen.Seconds()
		r.Attempted, r.OK, r.Failed = res.attempted, res.ok, res.failed
	}
	return r
}

// workloadNames is the order BENCHMARK.json lists the workloads in.
var workloadNames = []string{"serve_compute", "serve_small", "serve_batched", fleetName}

// runWorkload measures one workload: end to end, or layer by layer when
// cfg.trace is set.
func runWorkload(cfg config) (*report, error) {
	if got, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); got > n {
		return nil, fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d: threads would share cores and no figure would repeat", got, n)
	}
	w, serving := findServe(cfg.workload)
	var rep *report
	var err error
	switch {
	case !serving && cfg.workload != fleetName:
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	case cfg.trace:
		rep, err = traceRun(cfg)
	case serving:
		rep, err = w.run(cfg)
	default:
		rep, err = runFleet(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err := rep.check(); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return rep, nil
}

// normalizeTrace lets -trace be given bare (`-trace`) or with the driver's
// separate value (`--trace 0`, `--trace 1`): the flag package would read
// the latter as a bare boolean followed by a stray argument.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	var cfg config
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", "", "one of serve_compute, serve_small, serve_batched, fleet_sim")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for inputs, weights, request order and scenario seeds")
	fs.IntVar(&cfg.seconds, "seconds", runSeconds, "measured window in seconds (BENCHMARK.json fixes it; compare only equal windows)")
	fs.BoolVar(&cfg.trace, "trace", false, "measure the per-layer metrics instead and write the span file")
	fs.BoolVar(&cfg.smoke, "smoke", false, "fixed small op counts instead of a timed window (for tests; the figures mean nothing)")
	fs.StringVar(&cfg.out, "out", "", "also write the full report as JSON to this file")
	fs.StringVar(&cfg.traceDir, "tracedir", "benchmark/out", "directory for trace-<workload>.json")
	aa := fs.Int("aa", 0, "run two interleaved sets of this many full runs of this binary and compare them against the bounds")
	fs.Parse(normalizeTrace(os.Args[1:])) // ExitOnError: Parse does not return an error
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		os.Exit(2)
	}
	if *aa > 0 {
		if err := runAA(cfg, *aa); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if cfg.out != "" {
		if err := rep.writeFile(cfg.out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	rep.print(os.Stdout)
	if rep.Failed > 0 {
		os.Exit(1)
	}
}
