package cluster

import (
	"testing"

	"mlvfpga/internal/rms"
)

func TestTargetDepth(t *testing.T) {
	cfg := DefaultPlannerConfig()
	ladder := []int{1, 2, 4}

	hot := rms.LoadStats{QueueDepth: cfg.ScaleUpQueue}
	if got := cfg.TargetDepth(1, 0, hot, ladder); got != 2 {
		t.Fatalf("hot depth-1 lease -> %d, want 2", got)
	}
	if got := cfg.TargetDepth(2, 0, hot, ladder); got != 4 {
		t.Fatalf("hot depth-2 lease -> %d, want 4", got)
	}
	if got := cfg.TargetDepth(4, 0, hot, ladder); got != 4 {
		t.Fatalf("hot lease at top rung -> %d, want 4", got)
	}

	idle := rms.LoadStats{}
	if got := cfg.TargetDepth(2, cfg.ScaleDownIdleTicks-1, idle, ladder); got != 2 {
		t.Fatalf("briefly idle lease moved to %d, want hysteresis hold at 2", got)
	}
	if got := cfg.TargetDepth(2, cfg.ScaleDownIdleTicks, idle, ladder); got != 1 {
		t.Fatalf("idle lease -> %d, want 1", got)
	}
	if got := cfg.TargetDepth(1, 100, idle, ladder); got != 1 {
		t.Fatalf("idle lease at bottom rung -> %d, want 1", got)
	}
	// A resident stream blocks a scale-down even with an empty queue.
	busy := rms.LoadStats{Pending: 1}
	if got := cfg.TargetDepth(2, 100, busy, ladder); got != 2 {
		t.Fatalf("busy lease scaled down to %d", got)
	}
}
