package cluster

import (
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/netmodel"
	"mlvfpga/internal/rms"
)

// PlannerConfig tunes the load-driven depth selection. The decision is a
// pure function of the lease's load observation, so control-plane runs
// replay deterministically.
type PlannerConfig struct {
	// ScaleUpQueue is the queue depth (waiting requests) at or above
	// which a lease climbs one rung on the partition ladder.
	ScaleUpQueue int
	// ScaleDownIdleTicks is how many consecutive idle observations
	// (empty queue, nothing in flight) a lease must accumulate before it
	// descends one rung — hysteresis against burst edges.
	ScaleDownIdleTicks int
	// MaxStepComm, when positive, vetoes a scale-up whose modelled
	// per-step communication cost exceeds it: beyond this point the
	// interconnect eats the throughput gain.
	MaxStepComm time.Duration
}

// DefaultPlannerConfig returns serving defaults: scale up under a backlog
// of 8, scale down after 3 consecutive idle control ticks.
func DefaultPlannerConfig() PlannerConfig {
	return PlannerConfig{ScaleUpQueue: 8, ScaleDownIdleTicks: 3}
}

// TargetDepth picks the next rung for a lease: cur stays unless the
// backlog demands a deeper deployment (and the ladder plus comm budget
// allow one) or sustained idleness allows a shallower one. ladder must be
// ascending; commCost may be nil when no interconnect veto applies.
func (cfg PlannerConfig) TargetDepth(cur, idleTicks int, load rms.LoadStats, ladder []int, commCost func(depth int) time.Duration) int {
	if len(ladder) == 0 {
		return cur
	}
	idx := ladderIndex(ladder, cur)
	if load.QueueDepth >= cfg.ScaleUpQueue && idx+1 < len(ladder) {
		next := ladder[idx+1]
		if cfg.MaxStepComm > 0 && commCost != nil && commCost(next) > cfg.MaxStepComm {
			return cur
		}
		return next
	}
	if load.QueueDepth == 0 && load.InFlight == 0 && idleTicks >= cfg.ScaleDownIdleTicks && idx > 0 {
		return ladder[idx-1]
	}
	return cur
}

// ladderIndex locates cur on the ladder, clamping to the nearest rung.
func ladderIndex(ladder []int, cur int) int {
	for i, d := range ladder {
		if d >= cur {
			return i
		}
	}
	return len(ladder) - 1
}

// Rung mirrors partition.Rung at the control-plane level: deploying a
// lease onto Pieces devices moves StepBytes over the interconnect per
// timestep.
type Rung struct {
	Pieces    int
	StepBytes int64
}

// RNNLadder derives the communication ladder for an RNN layer served by
// the scale-out data plane: at depth k each device contributes an h/k
// shard of fp16 words to the per-step all-gather.
func RNNLadder(spec kernels.LayerSpec, depths []int) []Rung {
	out := make([]Rung, 0, len(depths))
	for _, k := range depths {
		var bytes int64
		if k > 1 {
			bytes = int64(spec.Hidden) / int64(k) * 2
		}
		out = append(out, Rung{Pieces: k, StepBytes: bytes})
	}
	return out
}

// CommCost models a depth's per-step interconnect cost on the ring: the
// all-gather of the depth's shards across the first Pieces ring positions
// (the runtime places pieces on distinct devices; adjacency is the
// best case the planner budgets for).
func CommCost(ring *netmodel.Ring, rungs []Rung) func(depth int) time.Duration {
	if ring == nil {
		return nil
	}
	return func(depth int) time.Duration {
		for _, r := range rungs {
			if r.Pieces != depth {
				continue
			}
			if depth <= 1 || depth > ring.Nodes() {
				return 0
			}
			members := make([]int, depth)
			for i := range members {
				members[i] = i
			}
			d, err := ring.AllGatherTime(members, r.StepBytes)
			if err != nil {
				return 0
			}
			return d
		}
		return 0
	}
}
