package simtest

import (
	"fmt"
	"math/rand"
)

// EventKind enumerates the schedule vocabulary.
type EventKind int

const (
	// EvHeartbeat beats every device that is not killed.
	EvHeartbeat EventKind = iota
	// EvTick runs one control-plane pass (sweep, evacuate, re-partition).
	EvTick
	// EvInfer serves a small concurrent batch of requests on one lease and
	// checks the outputs against the golden memo (bit-identical across
	// migrations and resizes).
	EvInfer
	// EvLoad scripts a lease's observed queue depth, driving the
	// planner's scale-up/scale-down decisions at the next tick.
	EvLoad
	// EvDeploy admits a new lease (bounded by the script's maxLeases).
	EvDeploy
	// EvRelease releases a live lease through the data plane's drain path.
	EvRelease
	// EvRedeploy releases a live lease and immediately deploys the same
	// spec again: the warm-start path. With the artifact store populated,
	// the new lease must report a warm deploy (zero compile work).
	EvRedeploy
	// EvKill silences a device's heartbeats until EvRevive (the registry
	// times it out to Suspect, then Dead).
	EvKill
	// EvRevive resumes a killed device's heartbeats.
	EvRevive
	// EvDrain administratively drains a device (at most one at a time).
	EvDrain
	// EvUndrain returns the drained device to service.
	EvUndrain
	// EvCondemn reports positive failure evidence for one shard of a live
	// lease: the control plane marks the shard's device Dead.
	EvCondemn
	// EvPreempt serves a concurrent batch on one lease while firing
	// explicit preemptions into it: resident streams are checkpointed back
	// into the fair queue mid-sequence and must finish bit-identical to a
	// never-preempted run.
	EvPreempt
	// EvRestore rebuilds a lease's engine pool mid-batch (a same-size
	// resize): the transplant checkpoints resident streams and restores
	// them onto the fresh machines, again bit-identical.
	EvRestore
	// EvDefrag runs one quiet-period consolidation pass on the control
	// plane (idle leases packed onto already-occupied devices).
	EvDefrag

	numEventKinds
)

var eventNames = [...]string{
	EvHeartbeat: "heartbeat",
	EvTick:      "tick",
	EvInfer:     "infer",
	EvLoad:      "load",
	EvDeploy:    "deploy",
	EvRelease:   "release",
	EvRedeploy:  "redeploy",
	EvKill:      "kill",
	EvRevive:    "revive",
	EvDrain:     "drain",
	EvUndrain:   "undrain",
	EvCondemn:   "condemn",
	EvPreempt:   "preempt",
	EvRestore:   "restore",
	EvDefrag:    "defrag",
}

func (k EventKind) String() string {
	if k >= 0 && int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one abstract schedule entry. R is a raw PRNG draw resolved
// against the live cluster state at execution time (e.g. "release the
// R-th live lease"), which keeps a schedule executable after the
// minimizer removes arbitrary subsets of it.
type Event struct {
	Kind EventKind
	R    uint64
}

func (e Event) String() string { return fmt.Sprintf("%s r=%#x", e.Kind, e.R) }

// scheduleMix is the schedule's event mix: a draw p in [0, 1000) picks
// the first kind whose bound exceeds p. Weights skew toward the serving
// path (heartbeats, infers, ticks) with a steady trickle of fault and
// lifecycle events.
var scheduleMix = [...]struct {
	below int
	kind  EventKind
}{
	{270, EvHeartbeat}, {500, EvInfer}, {690, EvTick}, {780, EvLoad}, {813, EvDeploy},
	{841, EvRedeploy}, {869, EvRelease}, {887, EvKill}, {903, EvRevive}, {916, EvDrain},
	{929, EvUndrain}, {941, EvCondemn}, {972, EvPreempt}, {988, EvRestore}, {1000, EvDefrag},
}

// Schedule derives the event list for a seed: a pure function, so the
// same (seed, steps) pair always yields the same schedule.
func Schedule(seed int64, steps int) []Event {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Event, steps)
	for i := range out {
		m, p := 0, rng.Intn(1000)
		for scheduleMix[m].below <= p {
			m++
		}
		out[i] = Event{Kind: scheduleMix[m].kind, R: rng.Uint64()}
	}
	return out
}
