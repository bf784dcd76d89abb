package simtest

import (
	"slices"
	"strings"
	"testing"

	"mlvfpga/internal/cluster"
)

// minimize shrinks a failing schedule to a 1-minimal event list that
// still violates the same invariant, ddmin-style (Zeller and
// Hildebrandt, IEEE TSE 2002): try removing chunks of halving size, keep
// any removal that reproduces, and stop when no single event can be
// removed. Events resolve their random draws against live state, so a
// schedule stays executable after any subset of it is deleted. Shrinking
// is best-effort: once the script's shrinkRuns re-executions are spent it
// stops and reports exhausted, and what it returns still violates but may not be
// 1-minimal (the seed always reproduces the original).
func minimize(sc script, sched []Event, orig *Violation) (minimal []Event, trace []string, runs int, exhausted bool) {
	repro := func(cand []Event) ([]string, bool) {
		if runs >= sc.shrinkRuns {
			exhausted = true
			return nil, false
		}
		runs++
		out, err := runSchedule(sc, cand)
		if err != nil || out.violation == nil || out.violation.Invariant != orig.Invariant {
			return nil, false
		}
		return out.lines, true
	}
	cur := append([]Event(nil), sched...)
	for chunk := (len(cur) + 1) / 2; chunk >= 1 && !exhausted; {
		removed := false
		for start := 0; start < len(cur) && !exhausted; {
			end := min(start+chunk, len(cur))
			cand := make([]Event, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if tr, ok := repro(cand); ok {
				// Keep scanning from the same offset: the window now holds
				// the events that followed the removed chunk.
				cur, trace, removed = cand, tr, true
			} else {
				start = end
			}
		}
		if !removed {
			if chunk == 1 {
				break
			}
			chunk = (chunk + 1) / 2
		}
	}
	return cur, trace, runs, exhausted
}

// checkShrunk holds a shrunk failure to the shrinker's guarantees: the
// minimal schedule replays to the same invariant twice with one trace
// hash, the one the report's minimal trace hashes to, and deleting any
// single event of it loses the violation (1-minimality).
func checkShrunk(t *testing.T, sc script, res *Result) {
	t.Helper()
	want := res.Violation.Invariant
	for i := range 2 {
		out, err := runSchedule(sc, res.Minimal)
		if err != nil {
			t.Fatal(err)
		}
		if out.violation == nil || out.violation.Invariant != want {
			t.Fatalf("replay %d of the minimal schedule ended with %v, want invariant %q", i, out.violation, want)
		}
		if got, w := out.TraceHash(), hashTrace(res.MinimalTrace); got != w {
			t.Fatalf("replay %d of the minimal schedule hashes to %016x, its reported trace to %016x", i, got, w)
		}
	}
	for i, ev := range res.Minimal {
		out, err := runSchedule(sc, slices.Delete(slices.Clone(res.Minimal), i, i+1))
		if err != nil {
			t.Fatal(err)
		}
		if out.violation != nil && out.violation.Invariant == want {
			t.Errorf("without its event %d (%s) the minimal schedule still violates %q: not 1-minimal", i, ev, want)
		}
	}
}

// named plants a violation that needs exactly the given events: it fires
// once all of them have run, whatever else the schedule holds.
func named(events []Event) func(h *harness, ev Event) {
	return func(h *harness, ev Event) {
		n := 0
		for _, e := range h.ran {
			if slices.Contains(events, e) {
				n++
			}
		}
		if n == len(events) {
			h.fail("named-events", "all %d named events ran", n)
		}
	}
}

// TestShrinkToNamedEvents: a violation that needs exactly k named events
// of a schedule shrinks to exactly those k, in schedule order, within
// the shrinking budget.
func TestShrinkToNamedEvents(t *testing.T) {
	for k := 1; k <= 3; k++ {
		sc := defaultScript(int64(k))
		sc.steps = 48
		sched := Schedule(sc.seed, sc.steps)
		var want []Event
		for j := range k {
			want = append(want, sched[5+j*sc.steps/k])
		}
		sc.inject = named(want)
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation == nil || res.Violation.Invariant != "named-events" {
			t.Fatalf("k=%d: run ended with %v, want the planted violation", k, res.Violation)
		}
		if !slices.Equal(res.Minimal, want) || res.Exhausted {
			t.Fatalf("k=%d: shrank to %v (budget exhausted: %v), want exactly %v\n%s", k, res.Minimal, res.Exhausted, want, res.Report())
		}
		checkShrunk(t, sc, res)
	}
}

// TestShrinkDeviceDeathSweep plants "a device under lease 1 stopped
// answering" (the registry reads it Suspect or Dead) over a small seed
// sweep. Every seed it catches shrinks to a replayable, 1-minimal
// schedule holding a condemn or a tick, the only events that move a
// device's health down: a condemn at once, a tick once the device has
// been silent past the suspect window.
func TestShrinkDeviceDeathSweep(t *testing.T) {
	caught := 0
	for seed := int64(1); seed <= 6; seed++ {
		sc := defaultScript(seed)
		sc.steps = 96
		sc.inject = func(h *harness, ev Event) {
			l, ok := h.svc.Lease(1) // the preamble's first lease
			if !ok {
				return
			}
			for _, pl := range l.Placements {
				if st, _ := h.cp.Registry().State(pl.FPGA); st == cluster.Suspect || st == cluster.Dead {
					h.fail("down-under-lease", "device %d is %s under lease 1", pl.FPGA, st)
					return
				}
			}
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation == nil {
			continue
		}
		caught++
		t.Logf("seed %d: %s; shrank to %d of %d events in %d runs", seed, res.Violation, len(res.Minimal), len(res.Schedule), res.MinimizeRuns)
		if res.Violation.Invariant != "down-under-lease" || res.Exhausted {
			t.Fatalf("seed %d:\n%s", seed, res.Report())
		}
		if !slices.ContainsFunc(res.Minimal, func(ev Event) bool { return ev.Kind == EvCondemn || ev.Kind == EvTick }) {
			t.Errorf("seed %d: the minimal schedule %v holds neither a condemn nor a tick", seed, res.Minimal)
		}
		checkShrunk(t, sc, res)
	}
	if caught < 2 {
		t.Fatalf("%d seeds of the sweep took a device down under lease 1, want at least 2", caught)
	}
}

// TestShrinkBudgetReported: a shrink that runs out of re-executions says
// so, in the result and in the report, and still returns a schedule that
// violates.
func TestShrinkBudgetReported(t *testing.T) {
	sc := defaultScript(2)
	sc.steps = 48
	sched := Schedule(sc.seed, sc.steps)
	sc.inject = named([]Event{sched[3], sched[40]})
	const budget = 3
	sc.shrinkRuns = budget
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.MinimizeRuns != budget {
		t.Fatalf("exhausted %v after %d runs, want true after %d", res.Exhausted, res.MinimizeRuns, budget)
	}
	if !strings.Contains(res.Report(), "stopped on its budget of 3 runs") {
		t.Errorf("the report hides the spent budget:\n%s", res.Report())
	}
	out, err := runSchedule(sc, res.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if out.violation == nil || out.violation.Invariant != "named-events" {
		t.Errorf("the budget-cut schedule replays to %v, want the planted violation", out.violation)
	}
}
