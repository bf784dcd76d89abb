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
// (core.TestCompileAllocations). One Run measures about 750 kB and 2,700
// objects (about 785 kB and 3,015 under -race). Weights are paid once per
// weight set, not once per lease: a deploy's replicas serve replica 0's
// model, so the six leases (four echo replicas, two aft) build two sets.
// Of the bytes, their binary16 weight images take about 90 kB and their
// packed tiles, stored at their column width, about 75 kB; tiles are
// quantized from their binary16 rows, with no float64 staging or scratch
// block; the arrival sequence takes about 80 kB and the registry's device
// slab about 55 kB.
func TestScenarioAllocBudget(t *testing.T) {
	const maxKB, maxObjects = 875, 3150
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
