package scenario

import (
	"math/rand"
	"runtime"
	"testing"

	"mlvfpga/internal/wdsl"
)

// TestScenarioAllocBudget holds the simulator's allocation diet: one
// warmed Run of the 1000-device diurnal spec stays inside a byte and an
// object budget. The fleet is fixed at construction, so the per-event
// audit and the control tick read it in place; a per-event or per-lease
// copy of the 1000-device table breaks the byte budget at once. The device
// registry is one slab and the controller's devices share one spec per
// type; the audit and the tick refill lease views and scratch their owners
// keep; the stack's one cold compile allocates per design, not per
// module, node or edge (core.TestCompileAllocations). The simulator's own bookkeeping allocates
// nothing per event once warm: the DES heap holds events by value, the
// recurring events and the sampled serves share one func value each, the
// trace is hashed as it is written and no line is kept, and serving
// scratch (requests, inputs, output hashes) lives on the Stack. The
// deploy path derives a spec's artifact key once per plan (a warm lookup
// allocates nothing), a control tick returns its report by value into
// Stack scratch, and the data plane makes a tenant stripe's table on its
// first admission. An engine is built, not grown: a machine's stream state
// is a few slabs sized by its kernel's programs, its per-register tables
// one slice, its codec shared, and a weight set's tiles load on a machine
// that cuts no stream slab. One Run measures about 575 kB and 735 objects
// (about 595 kB and 857 under -race; the bounds are the -race level plus
// under 5 %). Of the objects the six deploys (compile, placement) take
// about 235, of which the stack's one cold compile, which allocates per
// design and resolves each name once, about 118; the engine builds and
// serving about 300 (the two
// weight-set loads about 110, the six engine builds about 80, the sampled
// inferences, whose first write cuts a stream's slabs, about 115, a fair
// queue's first push making 2 objects); the stack's construction about
// 60; the control ticks about 20 (their transitions and events).
// Weights are paid once per weight set, not once per lease: a deploy's
// replicas serve replica 0's model, so the six leases (four echo
// replicas, two aft) build two sets. Of the bytes, their binary16 weight
// images take about 100 kB and their packed tiles, stored at their column
// width, about 75 kB; the arrival sequence, presized at every block's
// peak rate, about 45 kB and the registry's device slab about 55 kB.
func TestScenarioAllocBudget(t *testing.T) {
	const maxKB, maxObjects = 620, 895
	spec := loadSpec(t, "../../testdata/scenarios/diurnal-1000.mlw")
	if _, err := Run(spec, "warm-up"); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := Run(spec, "budget")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Valid {
		t.Fatalf("scenario not green: %s", rep.Violation)
	}
	kb, objects := (after.TotalAlloc-before.TotalAlloc)/1024, after.Mallocs-before.Mallocs
	t.Logf("one Run: %d kB, %d objects", kb, objects)
	if kb > maxKB || objects > maxObjects {
		t.Errorf("one Run allocated %d kB and %d objects, budget %d kB and %d", kb, objects, maxKB, maxObjects)
	}
}

// BenchmarkScenarioRun runs 16 differently-seeded instances of the
// 1000-device diurnal spec in turn, the way the fleet_sim benchmark
// workload cycles its instances, so one seed's Poisson draw does not set
// the figure. Each instance runs once before the timer starts. Where a Run
// allocates:
//
//	go test -run '^$' -bench ScenarioRun -benchmem -memprofile m.prof \
//	    -memprofilerate=1 ./internal/scenario
//	go tool pprof -sample_index=alloc_objects -top m.prof
func BenchmarkScenarioRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var specs [16]*wdsl.Spec
	for i := range specs {
		specs[i] = loadSpec(b, "../../testdata/scenarios/diurnal-1000.mlw")
		specs[i].Scenario.Seed = rng.Int63()
		if _, err := Run(specs[i], "warm-up"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		rep, err := Run(specs[n%len(specs)], "bench")
		if err != nil || !rep.Valid {
			b.Fatalf("run %d: %v (valid %v)", n, err, rep != nil && rep.Valid)
		}
	}
}
