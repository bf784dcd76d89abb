package simtest

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"mlvfpga/internal/cluster"
)

// The sweep knobs. `make simtest` passes -seeds=20 -steps=500 (or the
// SIMSEEDS/SIMSTEPS make variables); the bare `go test` defaults keep
// tier-1 runs quick.
var (
	flagSeeds = flag.Int("seeds", 8, "number of seeds TestSimSweep runs")
	flagSteps = flag.Int("steps", 250, "schedule events per simulated run")
	flagSeed  = flag.Int64("seed", 0, "single seed for TestSimSeed (0 = skip; use to reproduce a printed failure)")
	update    = flag.Bool("update", false, "rewrite the pinned sweep's lines in "+sweepGolden)
)

// sweepGolden pins TestSimSweep's trace hash per seed at the two sweeps
// that run routinely: the bare `go test` default (8 seeds × 250 steps) and
// `make simtest` (20 × 500). One line per (seed, steps); other sweep sizes
// are not compared.
const sweepGolden = "testdata/sweep_trace.golden"

var pinnedSweeps = map[[2]int]bool{{8, 250}: true, {20, 500}: true}

// checkSweepGolden compares one sweep's lines ("seed=S steps=N trace=H")
// with the golden's lines for the same steps, byte for byte. Under
// -update it replaces those lines and keeps the other sweep's.
func checkSweepGolden(t *testing.T, steps int, got []string) {
	t.Helper()
	raw, err := os.ReadFile(sweepGolden)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	suffix := fmt.Sprintf(" steps=%d ", steps)
	var other, want []string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		switch {
		case line == "":
		case strings.Contains(line, suffix):
			want = append(want, line)
		default:
			other = append(other, line)
		}
	}
	if *update {
		all := append(other, got...)
		key := func(line string) (seed, steps int) {
			fmt.Sscanf(line, "seed=%d steps=%d", &seed, &steps)
			return seed, steps
		}
		sort.SliceStable(all, func(i, j int) bool { // by steps, then seed
			si, ni := key(all[i])
			sj, nj := key(all[j])
			return ni < nj || ni == nj && si < sj
		})
		if err := os.WriteFile(sweepGolden, []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("sweep trace hashes differ from %s:\n%s\nwant:\n%s", sweepGolden, g, w)
	}
}

// writeReport dumps a failing run's report (seed, violation, minimized
// ddmin schedule, minimal trace) where CI can collect it as an artifact.
// The directory comes from SIMTEST_REPORT_DIR; unset means skip.
func writeReport(t *testing.T, res *Result) {
	dir := os.Getenv("SIMTEST_REPORT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("simtest report dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed-%d.txt", t.Name(), res.Seed))
	if err := os.WriteFile(path, []byte(res.Report()), 0o644); err != nil {
		t.Logf("simtest report write: %v", err)
		return
	}
	t.Logf("wrote failure report to %s", path)
}

// TestSimSweep is the sweep's front door: one deterministic run per
// seed, failing with the minimized schedule on any invariant violation.
func TestSimSweep(t *testing.T) {
	seeds, steps := *flagSeeds, *flagSteps
	if testing.Short() {
		if seeds > 4 {
			seeds = 4
		}
		if steps > 120 {
			steps = 120
		}
	}
	var hashes []string
	for s := 1; s <= seeds; s++ {
		sc := defaultScript(int64(s))
		sc.steps = steps
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		if res.Violation != nil {
			writeReport(t, res)
			t.Fatalf("\n%s", res.Report())
		}
		t.Logf("%s", res.Report())
		if got := hashTrace(res.Trace); got != res.TraceHash {
			t.Errorf("seed %d: the kept lines hash to %016x, the running trace hash is %016x", s, got, res.TraceHash)
		}
		hashes = append(hashes, fmt.Sprintf("seed=%d steps=%d trace=%016x", s, steps, res.TraceHash))
	}
	if pinnedSweeps[[2]int{seeds, steps}] {
		checkSweepGolden(t, steps, hashes)
	}
}

// TestSimSeed replays exactly one seed, the reproduction path printed in
// every failure report.
func TestSimSeed(t *testing.T) {
	if *flagSeed == 0 {
		t.Skip("pass -seed=N to replay a single seed")
	}
	sc := defaultScript(*flagSeed)
	sc.steps = *flagSteps
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("seed %d: %v", *flagSeed, err)
	}
	for _, line := range res.Trace {
		t.Log(line)
	}
	if res.Violation != nil {
		writeReport(t, res)
		t.Fatalf("\n%s", res.Report())
	}
}

// TestSimPreemptionSchedule pins a fixed, checkpoint-heavy schedule: every
// third event is a preemption, transplant or defrag against live serving
// traffic, with heartbeats keeping the fleet healthy. The run must stay
// golden (preempted streams finish bit-identical) and replay bit-for-bit
// — this is the CI regression for the checkpoint/restore path as a whole.
func TestSimPreemptionSchedule(t *testing.T) {
	sc := defaultScript(99)
	rng := rand.New(rand.NewSource(99))
	pattern := []EventKind{
		EvHeartbeat, EvInfer, EvPreempt,
		EvHeartbeat, EvInfer, EvRestore,
		EvHeartbeat, EvTick, EvDefrag,
	}
	steps := 108
	if testing.Short() {
		steps = 54
	}
	sched := make([]Event, steps)
	for i := range sched {
		sched[i] = Event{Kind: pattern[i%len(pattern)], R: rng.Uint64()}
	}
	run := func() *harness {
		out, err := runSchedule(sc, sched)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := run()
	if a.violation != nil {
		writeReport(t, &Result{Seed: sc.seed, Schedule: sched, Trace: a.lines,
			TraceHash: a.TraceHash(), Violation: a.violation})
		t.Fatalf("preemption schedule violated %q: %s", a.violation.Invariant, a.violation.Detail)
	}
	b := run()
	if b.violation != nil {
		t.Fatalf("replay violated %q: %s", b.violation.Invariant, b.violation.Detail)
	}
	if a.TraceHash() != b.TraceHash() {
		for i := range a.lines {
			if i < len(b.lines) && a.lines[i] != b.lines[i] {
				t.Errorf("trace diverged at line %d:\n  run A: %s\n  run B: %s", i, a.lines[i], b.lines[i])
				break
			}
		}
		t.Fatalf("preemption schedule is not deterministic: %016x vs %016x",
			a.TraceHash(), b.TraceHash())
	}
}

// TestSimDeterminism runs the same seed twice and demands the same event
// trace, bit for bit — the property every other guarantee (replay from a
// printed seed, shrinking against a stable failure) rests on.
func TestSimDeterminism(t *testing.T) {
	sc := defaultScript(3)
	sc.steps = 200
	if testing.Short() {
		sc.steps = 80
	}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if (a.Violation == nil) != (b.Violation == nil) {
		t.Fatalf("verdict diverged: %v vs %v", a.Violation, b.Violation)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace length diverged: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("trace diverged at line %d:\n  run A: %s\n  run B: %s", i, a.Trace[i], b.Trace[i])
		}
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hash diverged: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
}

// TestScheduleDeterministic pins the generator itself: a pure function of
// (seed, steps), and distinct seeds actually diverge.
func TestScheduleDeterministic(t *testing.T) {
	a, b := Schedule(42, 300), Schedule(42, 300)
	if len(a) != len(b) {
		t.Fatalf("lengths diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := Schedule(43, 300)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 42 and 43 generated identical schedules")
	}
	counts := map[EventKind]int{}
	for _, ev := range a {
		counts[ev.Kind]++
	}
	for k := EventKind(0); k < numEventKinds; k++ {
		if counts[k] == 0 {
			t.Errorf("300-event schedule never emitted %s", k)
		}
	}
}

// TestStackCounterDeltasKeySet pins the 19 counter names every committed
// scenario report embeds: 7 serving + 5 slot + 7 snapshot.
func TestStackCounterDeltasKeySet(t *testing.T) {
	s, err := NewStack(DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got []string
	for name := range s.CounterDeltas() {
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{
		"mlv_admissions", "mlv_admissions_into_running", "mlv_batches_flushed", "mlv_defrag_moves",
		"mlv_devices_condemned", "mlv_heartbeat_misses", "mlv_infers_served", "mlv_leases_active",
		"mlv_migration_failures", "mlv_migrations", "mlv_preempt_evictions", "mlv_preempt_requests",
		"mlv_preempt_restores", "mlv_slot_round_occupancy", "mlv_slot_rounds", "mlv_slots_active",
		"mlv_snapshot_bytes", "mlv_snapshot_captures", "mlv_snapshot_restores",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CounterDeltas keys %v, want %v", got, want)
	}
}

// hashTrace is the trace hash recomputed from kept lines with hash/fnv:
// FNV-64a over each line and its newline.
func hashTrace(lines []string) uint64 {
	h := fnv.New64a()
	for _, line := range lines {
		h.Write([]byte(line + "\n"))
	}
	return h.Sum64()
}

// TestHotTraceLinesAllocateNothing holds the per-event trace lines to no
// allocation once warm: a heartbeat line and a tick's JSON line are built
// in the Stack's buffers and folded into the running hash, and a Stack
// outside runSchedule keeps no line. The tick line is json.Marshal's
// bytes. Its report carries no state transition: cluster.State's
// MarshalJSON allocates.
func TestHotTraceLinesAllocateNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops items under -race") // encoding/json pools its encoder state
	}
	s, err := NewStack(DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep := &cluster.TickReport{Tick: 12, Deferred: 1,
		Events: []cluster.Event{{Lease: 3, Kind: "evacuate", FromDepth: 2, ToDepth: 1, Err: "no capacity"}}}
	for _, line := range []struct {
		name string
		emit func()
	}{
		{"heartbeat", func() { s.beatAll(true) }},
		{"tick", func() { s.traceJSON("tick", rep) }},
	} {
		line.emit()
		if got := testing.AllocsPerRun(100, line.emit); got != 0 {
			t.Errorf("a warmed %s trace line allocates %v times, want 0", line.name, got)
		}
	}
	want, _ := json.Marshal(rep)
	if got := string(s.line); got != "0000 tick "+string(want)+"\n" {
		t.Errorf("tick line %q, want json.Marshal's bytes %s", got, want)
	}
	if len(s.lines) != 0 {
		t.Errorf("a Stack outside runSchedule kept %d trace lines", len(s.lines))
	}
}

// raceEnabled reports a -race build.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
