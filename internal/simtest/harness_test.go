package simtest

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"mlvfpga/internal/cluster"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/rms"
)

// script is one random-schedule run: the Stack it builds and what the
// schedule draws against it. Everything that influences the run is in
// here, so Run(sc) is a pure function of sc.
type script struct {
	Options
	// seed derives the event schedule (and nothing else: the stack under
	// test contains no randomness of its own at these settings).
	seed int64
	// steps is the number of schedule events.
	steps int
	// spec is the layer every lease of the run serves.
	spec kernels.LayerSpec
	// maxLeases caps concurrently live leases.
	maxLeases int
	// spacing is the virtual time between schedule events; against the
	// registry's suspect and dead windows it sets how fast killed devices
	// decay through the health state machine.
	spacing time.Duration
	// shrinkRuns is the re-executions the shrinking pass may spend.
	shrinkRuns int
	// inject, when set, runs after each event's audit while the run is
	// green and may record a violation of its own: how the shrinker's
	// tests plant a failure without a knob in the stack.
	inject func(h *harness, ev Event)
}

// defaultScript is the sweep's run for a seed: the default Stack, a small
// LSTM lease whose feasible ladder spans several depths, and at most four
// leases live. Lease weights derive from seed 7 whatever the schedule's
// seed, as they always have, so the pinned traces hold.
func defaultScript(seed int64) script {
	return script{
		Options:    DefaultOptions(7),
		seed:       seed,
		steps:      500,
		spec:       kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2},
		maxLeases:  4,
		spacing:    200 * time.Millisecond,
		shrinkRuns: 250,
	}
}

// Result is one run's verdict.
type Result struct {
	Seed     int64
	Schedule []Event
	// Trace is the resolved event log (deterministic fields only).
	Trace     []string
	TraceHash uint64
	// Violation is nil when every invariant held.
	Violation *Violation
	// Minimal is the shrunken schedule still reproducing
	// Violation.Invariant; MinimalTrace is its resolved log.
	Minimal      []Event
	MinimalTrace []string
	// MinimizeRuns counts re-executions the shrinking pass spent;
	// Exhausted reports that it stopped on its budget, so Minimal still
	// violates but may not be 1-minimal.
	MinimizeRuns int
	Exhausted    bool
}

// Report renders the result for humans, including the reproduction
// command when the run failed.
func (r *Result) Report() string {
	if r.Violation == nil {
		return fmt.Sprintf("seed %d: ok (%d events, trace %016x)", r.Seed, len(r.Schedule), r.TraceHash)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %s\n", r.Seed, r.Violation)
	fmt.Fprintf(&b, "minimized schedule: %d of %d events (%d shrink runs):\n",
		len(r.Minimal), len(r.Schedule), r.MinimizeRuns)
	if r.Exhausted {
		fmt.Fprintf(&b, "shrinking stopped on its budget of %d runs: the schedule may not be 1-minimal\n", r.MinimizeRuns)
	}
	for i, ev := range r.Minimal {
		fmt.Fprintf(&b, "  [%02d] %s\n", i, ev)
	}
	if len(r.MinimalTrace) > 0 {
		b.WriteString("minimal trace:\n")
		for _, line := range r.MinimalTrace {
			b.WriteString("  " + line + "\n")
		}
	}
	fmt.Fprintf(&b, "reproduce: go test ./internal/simtest -run TestSimSeed -seed=%d -steps=%d -v\n",
		r.Seed, len(r.Schedule))
	return b.String()
}

// Run executes the seed's schedule and, on a violation, shrinks it to a
// minimal reproduction. Deterministic: same script, same Result.
func Run(sc script) (*Result, error) {
	sched := Schedule(sc.seed, sc.steps)
	out, err := runSchedule(sc, sched)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Seed:      sc.seed,
		Schedule:  sched,
		Trace:     out.lines,
		TraceHash: out.TraceHash(),
		Violation: out.violation,
	}
	if out.violation != nil {
		res.Minimal, res.MinimalTrace, res.MinimizeRuns, res.Exhausted = minimize(sc, sched, out.violation)
		if res.MinimalTrace == nil {
			res.MinimalTrace = out.lines // nothing shrank: the full run is minimal
		}
	}
	return res, nil
}

// harness is one random-schedule run over a Stack: the script it plays
// and the executors that resolve each event's draw against live state.
type harness struct {
	*Stack
	sc script
	// drained holds the devices this run drained and has not undrained:
	// the registry keeps that flag to itself, and its State reads Dead or
	// Suspect for a drained device that went silent.
	drained map[int]bool
	// ran lists the events executed so far, in order.
	ran []Event
	// lines is the trace, one line per operation that emitted one;
	// multi counts operations that emitted more than one.
	lines []string
	multi int
}

// record runs one operation and keeps the trace line it emitted. An
// operation emits at most one line, so the running hash either stays or
// moves by exactly the Stack's last line; any other move is counted in
// multi.
func (h *harness) record(op func()) {
	before := h.TraceHash()
	op()
	switch after := h.TraceHash(); after {
	case before:
	case fnv64a(before, h.line):
		h.lines = append(h.lines, string(h.line[:len(h.line)-1]))
	default:
		h.multi++
	}
}

// runSchedule executes an explicit schedule (used directly by the
// minimizer; Run derives the schedule from the seed) as a client of Stack:
// two preamble leases, the events laid onto the DES engine at fixed
// spacing and stamped with their schedule index, the settle rounds, the
// stranded audit. It returns the finished (closed) run for its trace
// lines, which it records op by op, and verdict; an operation that
// emitted more than one line is an error.
func runSchedule(sc script, sched []Event) (*harness, error) {
	s, err := NewStack(sc.Options)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	h := &harness{Stack: s, sc: sc, drained: map[int]bool{}}
	// Preamble: two leases exist before the first event, so even a
	// one-event minimal schedule has something to act on. With tenants
	// configured they alternate owners, so both tenants hold state from
	// step zero.
	for i := 0; i < 2 && i < sc.maxLeases; i++ {
		if l, _ := s.deployAs(sc.spec, h.tenantFor(uint64(i)), 0); l == nil {
			return nil, fmt.Errorf("simtest: preamble deploy shed or failed: %v", s.violation)
		}
	}
	at := func(when time.Duration, step int, op func()) error {
		return s.eng.At(when, func(time.Duration) { s.step = step; h.record(op) })
	}
	for i := range sched {
		ev := sched[i]
		if err := at(time.Duration(i+1)*sc.spacing, i, func() { h.exec(ev) }); err != nil {
			return nil, err
		}
	}
	settleStart := time.Duration(len(sched)+1) * sc.spacing
	for k := 0; k < SettleSteps; k++ {
		if err := at(settleStart+time.Duration(k)*SettlePeriod, len(sched)+k, s.settle); err != nil {
			return nil, err
		}
	}
	s.eng.Run(0)
	s.step = len(sched) + SettleSteps
	h.record(s.checkStranded)
	if h.multi > 0 {
		return nil, fmt.Errorf("simtest: %d operations emitted more than one trace line", h.multi)
	}
	return h, nil
}

// pick resolves an event's PRNG draw to one of the candidates, or traces
// the event's noop when there are none.
func (h *harness) pick(kind string, r uint64, from []int) (int, bool) {
	if len(from) == 0 {
		h.tracef("%s noop", kind)
		return 0, false
	}
	return from[int(r%uint64(len(from)))], true
}

func (h *harness) devicesWhere(ok func(d int) bool) []int {
	var out []int
	for _, d := range h.devices {
		if ok(d) {
			out = append(out, d)
		}
	}
	return out
}

// tenantFor resolves a PRNG draw to a tenant id (empty when the run is
// tenantless). Callers pass distinct shifted views of the event's R so the
// tenant choice does not correlate with lease or seed choices.
func (h *harness) tenantFor(r uint64) string {
	if len(h.sc.Tenants) == 0 {
		return ""
	}
	return h.sc.Tenants[int(r%uint64(len(h.sc.Tenants)))].ID
}

func (h *harness) exec(ev Event) {
	if h.violation != nil {
		return // fail-stop: later events would check against a broken model
	}
	h.ran = append(h.ran, ev)
	switch ev.Kind {
	case EvHeartbeat:
		h.beatAll(true)
	case EvTick:
		h.tick("tick")
	case EvInfer:
		h.serveBatch(ev.R, "infer", nil)
	case EvLoad:
		if id, ok := h.pick("load", ev.R, h.live); ok {
			h.offerLoad(id, int((ev.R>>8)%10))
		}
	case EvDeploy:
		if len(h.live) >= h.sc.maxLeases {
			h.tracef("deploy noop (at cap)")
		} else {
			h.deploy(h.sc.spec, h.tenantFor(ev.R>>24), 0)
		}
	case EvRelease:
		if id, ok := h.pick("release", ev.R, h.live); ok {
			h.release(id)
		}
	case EvRedeploy:
		h.doRedeploy(ev.R)
	case EvKill:
		// Keep at least two devices beating, so the sim never collapses
		// into a fleet that cannot host anything.
		alive := h.devicesWhere(func(d int) bool { return !h.killed[d] })
		if len(alive) <= 2 {
			alive = nil
		}
		if d, ok := h.pick("kill", ev.R, alive); ok {
			h.kill(d)
		}
	case EvRevive:
		if d, ok := h.pick("revive", ev.R, h.devicesWhere(func(d int) bool { return h.killed[d] })); ok {
			h.revive(d)
		}
	case EvDrain:
		if len(h.drained) > 0 {
			h.tracef("drain noop (one at a time)")
		} else if d, ok := h.pick("drain", ev.R, h.devicesWhere(func(d int) bool { return !h.killed[d] })); ok && h.drain(d) {
			h.drained[d] = true
		}
	case EvUndrain:
		if d, ok := h.pick("undrain", ev.R, h.devicesWhere(func(d int) bool { return h.drained[d] })); ok && h.undrain(d) {
			delete(h.drained, d)
		}
	case EvCondemn:
		h.doCondemn(ev.R)
	case EvPreempt:
		h.doPreempt(ev.R)
	case EvRestore:
		h.doRestore(ev.R)
	case EvDefrag:
		h.doDefrag()
	}
	if h.checkInvariants() && h.sc.inject != nil {
		h.sc.inject(h, ev)
	}
}

// doPreempt serves a concurrent batch while posting explicit preemption
// demand into it: resident streams are checkpointed back into the fair
// queue and resumed, and the outputs must not change. The eviction count
// is timing-dependent, so it never enters the trace or the model — the
// snapshot-conservation invariants pin the bookkeeping instead, and any
// demand left unconsumed here preempts streams of later events (more
// coverage, same invariants).
func (h *harness) doPreempt(r uint64) {
	h.serveBatch(r, "preempt", func(id int) {
		if _, err := h.dp.Preempt(id, 24); err != nil {
			h.fail("preempt-error", "lease %d: %v", id, err)
		}
	})
}

// doRestore rebuilds the lease's engine pool mid-batch at its current
// size: the transplant checkpoints every queued and resident stream and
// restores them onto the fresh machines, bit-identically.
func (h *harness) doRestore(r uint64) {
	h.serveBatch(r, "restore", func(id int) {
		if err := h.dp.Resize(id); err != nil {
			h.fail("restore-error", "lease %d: %v", id, err)
		}
	})
}

// serveBatch is the shared body of the infer-shaped events: a small
// concurrent request batch on one lease, optionally disturbed mid-flight
// by mid (preemption, transplant), then joined and audited against the
// golden memo.
func (h *harness) serveBatch(r uint64, kind string, mid func(id int)) {
	id, ok := h.pick(kind, r, h.live)
	if !ok {
		return
	}
	// The submitting tenant is drawn independently of the lease, so
	// requests routinely ride leases owned by the other tenant — exactly
	// the cross-tenant traffic the golden memo must prove leak-free
	// (outputs depend on (lease, seed) alone, never on the submitter).
	who := h.tenantFor(r >> 48)
	n := 1 + int((r>>16)%3)
	seeds := make([]int64, n)
	for j := range seeds {
		// A small recurring seed space, so later events replay inputs the
		// lease served before (often across a migration in between) and
		// the golden memo gets real coverage.
		seeds[j] = int64(((r >> 32) + uint64(j)) % 8)
	}
	h.serveOn(id, who, seeds, kind, mid)
}

// doDefrag runs one consolidation pass. The report is deterministic (the
// quiet gate reads the scripted load map, placements are a pure function
// of event history), so it is traced whole.
func (h *harness) doDefrag() {
	rep := h.cp.Defrag()
	if rep.ScoreAfter > rep.ScoreBefore {
		h.fail("defrag-error", "pass %d raised the fragmentation score %d -> %d", rep.Run, rep.ScoreBefore, rep.ScoreAfter)
	}
	for _, ev := range rep.Moves {
		if ev.Err == "" {
			h.expMigrations++
			h.expDefragMoves++
		} else {
			h.expMigFailures++
		}
	}
	h.traceJSON("defrag", rep)
}

func (h *harness) offerLoad(id, queueDepth int) {
	h.loads[id] = rms.LoadStats{QueueDepth: queueDepth}
	h.tracef("load lease=%d queue=%d", id, queueDepth)
}

// doRedeploy cycles a live lease through the warm-start path: release it,
// then deploy the same spec again. The preamble populated the artifact
// store, so the replacement lease must come back warm — a redeploy that
// compiles is an invariant breach, not just a slow path.
func (h *harness) doRedeploy(r uint64) {
	id, ok := h.pick("redeploy", r, h.live)
	if !ok || !h.dropLease(id) {
		return
	}
	// The replacement lease may land on a different tenant than the one
	// released, so redeploys also churn ownership.
	who := h.tenantFor(r >> 24)
	l, ok := h.deployAs(h.sc.spec, who, 0)
	if !ok {
		return
	}
	if l == nil {
		h.tracef("redeploy out=%d shed tenant=%s", id, who)
		return
	}
	h.tracef("redeploy out=%d in=%d depth=%d tenant=%s", id, l.ID, l.Depth, who)
}

// dropLease releases a lease through the data plane's drain path and
// forgets it in the model; redeploy and release trace it differently.
func (h *harness) dropLease(id int) bool {
	if err := h.svc.Release(id); err != nil {
		h.fail("release-error", "lease %d: %v", id, err)
		return false
	}
	h.live = slices.DeleteFunc(h.live, func(v int) bool { return v == id })
	delete(h.loads, id)
	delete(h.leaseTenant, id)
	delete(h.leaseSpec, id)
	return true
}

func (h *harness) release(id int) {
	if h.dropLease(id) {
		h.traceInt("release lease=", id)
	}
}

func (h *harness) doCondemn(r uint64) {
	id, ok := h.pick("condemn", r, h.live)
	if !ok {
		return
	}
	lease, ok := h.svc.Lease(id)
	if !ok {
		h.fail("lease-conservation", "model says lease %d is live, service disagrees", id)
		return
	}
	shard := int((r >> 8) % uint64(len(lease.Placements)))
	want := lease.Placements[shard].FPGA
	prev, _ := h.cp.Registry().State(want)
	if err := h.cp.ReportDead(want); err != nil {
		h.fail("condemn-error", "lease %d shard %d: fpga %d: %v", id, shard, want, err)
		return
	}
	if prev != cluster.Dead {
		h.expCondemned++
	}
	h.tracef("condemn lease=%d shard=%d fpga=%d prev=%s", id, shard, want, prev)
}
