package cluster

import "mlvfpga/internal/rms"

// PlannerConfig tunes the load-driven depth selection. The decision is a
// pure function of the lease's load observation, so control-plane runs
// replay deterministically.
type PlannerConfig struct {
	// ScaleUpQueue is the queue depth (waiting requests) at or above
	// which a lease climbs one rung on the partition ladder.
	ScaleUpQueue int
	// ScaleDownIdleTicks is how many consecutive idle observations
	// (empty queue, nothing pending) a lease must accumulate before it
	// descends one rung — hysteresis against burst edges.
	ScaleDownIdleTicks int
}

// DefaultPlannerConfig returns serving defaults: scale up under a backlog
// of 8, scale down after 3 consecutive idle control ticks.
func DefaultPlannerConfig() PlannerConfig {
	return PlannerConfig{ScaleUpQueue: 8, ScaleDownIdleTicks: 3}
}

// TargetDepth picks the next rung for a lease: cur stays unless the
// backlog demands a deeper deployment (and the ladder allows one) or
// sustained idleness allows a shallower one. ladder must be ascending.
func (cfg PlannerConfig) TargetDepth(cur, idleTicks int, load rms.LoadStats, ladder []int) int {
	if len(ladder) == 0 {
		return cur
	}
	idx := ladderIndex(ladder, cur)
	if load.QueueDepth >= cfg.ScaleUpQueue && idx+1 < len(ladder) {
		return ladder[idx+1]
	}
	if load.QueueDepth == 0 && load.Pending == 0 && idleTicks >= cfg.ScaleDownIdleTicks && idx > 0 {
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
