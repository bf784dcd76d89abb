package simtest

import (
	"time"

	"mlvfpga/internal/des"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/rms"
)

// InvariantFamilies lists every invariant the harness audits after each
// event, in the order checkInvariants runs them. Scenario reports embed
// the list so a report is self-describing about what "green" certified.
func InvariantFamilies() []string {
	return []string{
		"lease-conservation",
		"placement-shape",
		"duplicate-device",
		"placement-conservation",
		"feasible-depth",
		"engine-tombstone",
		"quota-conservation",
		"tenant-accounting",
		"artifact-cache",
		"warm-deploy",
		"snapshot-conservation",
		"counter-conservation",
		"batch-conservation",
		"slot-conservation",
		"golden-equivalence",
		"infer-served",
		"stranded-placement",
	}
}

// Stack is the exported face of the simtest harness: one fresh
// service + data plane + control plane wired to one DES engine, with the
// model-based invariant checkers attached. The random-schedule sweep in
// this package drives the same harness through Run; Stack exposes it to
// deterministic external drivers (the scenario engine) that choose their
// own events — explicit devices, explicit leases, explicit request seeds —
// instead of drawing them from a PRNG.
//
// The Stack starts empty: no preamble leases, no specs compiled. All
// methods must be called from the DES goroutine (timer callbacks or
// between Run calls); the only internal concurrency is inside Serve,
// which joins before returning.
type Stack struct {
	h *harness
	// step is the event counter stamped on traces and violations; external
	// drivers advance it via Step.
	step int
}

// NewStack builds a fresh stack from the options. Unlike the sweep
// harness, no preamble leases are deployed — the driver owns every deploy.
func NewStack(o Options) (*Stack, error) {
	h, err := newHarness(o, false)
	if err != nil {
		return nil, err
	}
	return &Stack{h: h}, nil
}

// Close shuts the data plane down. After Close the stack must not be used.
func (s *Stack) Close() { s.h.dp.Close() }

// Engine returns the DES engine the control plane's clock reads. Drivers
// lay their timeline onto it and call Run.
func (s *Stack) Engine() *des.Engine { return s.h.eng }

// Step advances and returns the event counter used in traces/violations.
func (s *Stack) Step() int { s.step++; return s.step }

// Devices returns the device IDs in the simulated cluster, ascending.
func (s *Stack) Devices() []int { return append([]int(nil), s.h.devices...) }

// Violation returns the first invariant breach, or nil while green.
func (s *Stack) Violation() *Violation { return s.h.violation }

// TraceHash folds the trace into the same FNV-64a digest Result uses.
func (s *Stack) TraceHash() uint64 { return hashTrace(s.h.trace) }

// Deploy deploys one lease of the given spec for the given tenant (empty
// for a tenantless run) and audits the admission decision. Returns
// (lease, true) on admission, (nil, true) on a correctly-shed attempt, and
// (nil, false) after recording a violation.
func (s *Stack) Deploy(spec kernels.LayerSpec, who string) (*rms.Lease, bool) {
	step := s.Step()
	l, ok := s.h.deploy(step, spec, who)
	if l == nil {
		return nil, ok
	}
	s.h.checkInvariants(step)
	return l, s.h.violation == nil
}

// Serve runs one concurrent batch of len(seeds) requests on the lease,
// attributed to tenant who, joins it, and audits the outputs against the
// golden (lease, seed) memo plus every invariant family. Reports whether
// the stack is still green.
func (s *Stack) Serve(id int, who string, seeds []int64) bool {
	step := s.Step()
	s.h.serveOn(step, id, who, seeds, "infer", nil)
	if s.h.violation == nil {
		s.h.checkInvariants(step)
	}
	return s.h.violation == nil
}

// Kill marks a device dead: it stops heartbeating until Revive. The
// registry notices after Control's SuspectAfter/DeadAfter windows.
func (s *Stack) Kill(device int) { s.h.kill(s.Step(), device) }

// Revive brings a killed device back and beats it once immediately.
func (s *Stack) Revive(device int) bool { return s.h.revive(s.Step(), device) }

// Drain starts an administrative drain of a device.
func (s *Stack) Drain(device int) bool { return s.h.drain(s.Step(), device) }

// Undrain returns a draining device to service.
func (s *Stack) Undrain(device int) bool { return s.h.undrain(s.Step(), device) }

// HeartbeatAll beats every device not currently killed.
func (s *Stack) HeartbeatAll() bool {
	step := s.Step()
	if s.h.violation != nil {
		return false
	}
	s.h.heartbeat(step)
	return s.h.violation == nil
}

// Tick runs one control-plane reconciliation round (health decay,
// evacuations, autoscaling) and folds its report into the counter model.
func (s *Stack) Tick() bool {
	step := s.Step()
	if s.h.violation != nil {
		return false
	}
	s.h.tick(step, "tick")
	s.h.checkInvariants(step)
	return s.h.violation == nil
}

// Settle runs one quiesce round: heartbeat survivors, tick, check. The
// stack enters settling mode, so evacuations that verifiably fail for
// lack of capacity excuse their lease from the stranded check.
func (s *Stack) Settle() bool {
	s.h.settle(s.Step())
	return s.h.violation == nil
}

// CheckStranded runs the end-of-run stranded-placement audit.
func (s *Stack) CheckStranded() bool {
	if s.h.violation == nil {
		s.h.checkStranded(s.Step())
	}
	return s.h.violation == nil
}

// LeaseLatency returns the modelled per-inference latency of a live
// lease — the scenario engine's queueing service time.
func (s *Stack) LeaseLatency(id int) (time.Duration, bool) {
	l, ok := s.h.svc.Lease(id)
	if !ok {
		return 0, false
	}
	return l.Latency, true
}

// CounterDeltas returns the process-global counters of the three families
// a scenario report carries, as deltas from the stack's birth (the counters
// are shared across stacks in one process, so only deltas are meaningful).
func (s *Stack) CounterDeltas() map[string]int64 {
	d := metrics.Snapshot().Sub(s.h.base)
	out := map[string]int64{}
	for _, f := range []metrics.Family{metrics.ServingFamily, metrics.SlotFamily, metrics.SnapshotFamily} {
		for name, v := range d.Family(f) {
			out[name] = v
		}
	}
	return out
}
