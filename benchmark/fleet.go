package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mlvfpga/internal/scenario"
	"mlvfpga/internal/wdsl"
)

//go:embed specs/fleet.mlw
var fleetSource string

const (
	fleetName = "fleet_sim"
	// fleetInstances is how many differently-seeded copies of the scenario
	// a run cycles through. One scenario's cost follows its Poisson draw
	// (arrivals ±3 %, sampled inferences ±20 %, allocations ±3 % from one
	// seed to the next), so a run that priced a single instance would
	// measure its -seed, not the code; the mean over 64 instances moves
	// an eighth as much.
	fleetInstances = 64
	// fleetWarmups is sized so that set-up takes at least half a second.
	fleetWarmups = 20
	// smokeInstances is the -smoke count: few enough that the handful of
	// ops a smoke run makes revisits each, so the trace-hash comparison in
	// op is exercised by the tier-1 test.
	smokeInstances = 2
)

// fleet is the compiled scenario instances of one run plus the trace hash
// each produced the first time it ran.
type fleet struct {
	specs  []*wdsl.Spec
	hashes []string
	last   *scenario.Report
	// warmups is how many ops setUp ran.
	warmups int
}

// setUp parses and compiles the embedded spec once per instance, each with
// a scenario seed drawn from the run's seed, and runs the warm-up ops.
func (f *fleet) setUp(cfg config) error {
	instances, warmups := fleetInstances, fleetWarmups
	if cfg.smoke {
		instances, warmups = smokeInstances, 1
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	f.specs = f.specs[:0]
	for i := 0; i < instances; i++ {
		file, err := wdsl.Parse(fleetSource)
		if err != nil {
			return fmt.Errorf("specs/fleet.mlw: %w", err)
		}
		spec, err := wdsl.Compile(file)
		if err != nil {
			return fmt.Errorf("specs/fleet.mlw: %w", err)
		}
		spec.Scenario.Seed = rng.Int63()
		f.specs = append(f.specs, spec)
	}
	if f.hashes == nil {
		f.hashes = make([]string, instances)
	}
	for n := 0; n < warmups; n++ {
		if !f.op(n) {
			return fmt.Errorf("%s: warm-up run %d was invalid or not reproducible", fleetName, n)
		}
	}
	f.warmups = warmups
	return nil
}

// op is one scenario.Run. It is correct only if the report is valid,
// passes its own arithmetic check, and reproduces the trace hash the same
// instance gave the first time it ran in this process.
func (f *fleet) op(n int) bool {
	i := n % len(f.specs)
	rep, err := scenario.Run(f.specs[i], "fleet.mlw")
	if err != nil || !rep.Valid || rep.Validate() != nil {
		return false
	}
	f.last = rep
	if f.hashes[i] == "" {
		f.hashes[i] = rep.TraceHash
	}
	return f.hashes[i] == rep.TraceHash
}

func runFleet(cfg config) (*report, error) {
	f := &fleet{}
	var setupS []float64
	var warmRate float64
	for i := 0; i < cfg.setUps(); i++ {
		t0 := time.Now()
		if err := f.setUp(cfg); err != nil {
			return nil, err
		}
		el := time.Since(t0).Seconds()
		setupS = append(setupS, el)
		warmRate = float64(f.warmups) / el
	}

	// One caller: the simulator is driven sequentially, as mlv-scenario
	// drives it.
	c := &client{op: f.op, next: f.warmups}
	res, err := measure([]*client{c}, cfg.window(), windowSegments, smokeOps/2, warmRate)
	if err != nil {
		return nil, err
	}
	// No stack outlives an op here: what the heap reading sees is the
	// compiled instances and the last report.
	rep := cfg.endToEndReport([]*client{c}, res, setupS)
	runtime.KeepAlive(f)
	return rep, nil
}
