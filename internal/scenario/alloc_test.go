package scenario

import (
	"runtime"
	"testing"
)

// TestScenarioAllocBudget holds the simulator's allocation diet: one
// warmed Run of the 1000-device diurnal spec stays inside a byte and an
// object budget. The fleet is fixed at construction, so the per-event
// audit and the control tick read it in place; a per-event or per-lease
// copy of the 1000-device table breaks the byte budget at once. A lease's
// engine draws its weights straight into binary16 and quantizes them once,
// not once per machine. The device registry is one slab, the audit refills
// scratch the Stack owns, and the stack's one cold compile allocates per
// module, not per token or AST leaf (core.TestCompileAllocations): one Run
// measures about 2,030 kB and 3,350 objects (3,630 under -race), per-node
// parsing and hashing add about 1,250 objects, and paying the tiles per
// machine again adds about 1 MB.
func TestScenarioAllocBudget(t *testing.T) {
	const maxKB, maxObjects = 2500, 4200
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
