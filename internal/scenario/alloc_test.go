package scenario

import (
	"runtime"
	"testing"
)

// TestScenarioAllocBudget holds the simulator's allocation diet: one
// warmed Run of the 1000-device diurnal spec stays inside a byte and an
// object budget. The fleet is fixed at construction, so the per-event
// audit and the control tick read it in place; a per-event or per-lease
// copy of the 1000-device table breaks the byte budget at once. The device
// registry is one slab and the controller's devices share one spec per
// type; the audit and the tick refill lease views and scratch their owners
// keep; the stack's one cold compile allocates per module, not per token
// (core.TestCompileAllocations). The simulator's own bookkeeping allocates
// nothing per event once warm: the DES heap holds events by value, the
// recurring events and the sampled serves share one func value each, the
// trace is hashed as it is written and no line is kept, and serving
// scratch (requests, inputs, output hashes) lives on the Stack. The
// deploy path derives a spec's artifact key once per plan (a warm lookup
// allocates nothing), a control tick returns its report by value into
// Stack scratch, and the data plane makes a tenant stripe's table on its
// first admission. One Run measures about 625 kB and 1,240 objects (about
// 645 kB and 1,375 under -race; the bounds are the -race level plus under
// 5 %). Of the objects the six deploys (compile, placement) take about
// 485, of which the stack's one cold compile about 360; the engine builds
// and serving about 480; the stack's construction about 60; the control
// ticks about 20 (their transitions and events).
// Weights are paid once per weight set, not once per lease: a deploy's
// replicas serve replica 0's model, so the six leases (four echo
// replicas, two aft) build two sets. Of the bytes, their binary16 weight
// images take about 100 kB and their packed tiles, stored at their column
// width, about 75 kB; the arrival sequence, presized at every block's
// peak rate, about 45 kB and the registry's device slab about 55 kB.
func TestScenarioAllocBudget(t *testing.T) {
	const maxKB, maxObjects = 675, 1440
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
