package rms

import (
	"sync/atomic"
	"time"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/frame"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/snapshot"
)

// resumeToken carries a preempted (or transplant-evacuated) stream's
// checkpoint back through the fair queue: the encoded snapshot blob plus
// the work and queue-wait accrued in earlier residencies, so the final
// retirement reports the same totals a never-preempted run would.
type resumeToken struct {
	data      []byte
	stats     accel.ExecStats
	wait      time.Duration
	preempted bool
}

// evictSlots checkpoints up to max resident streams of cm back into the
// fair queue, batch-class victims first. maxWeight > 0 restricts victims
// to that DRR weight class (automatic preemption never displaces
// latency-class streams); maxWeight == 0 allows any. An evacuation
// (preempted false) takes every stream regardless of progress: it never
// re-admits on this engine. Runs under cm.mu, held by a round's driver or
// by the stopper (transplantTo).
func (e *contEngine) evictSlots(cm *contMachine, max, maxWeight int, preempted bool) int {
	if max <= 0 {
		return 0
	}
	evicted := 0
	pass := func(limit int) {
		for s := range cm.slots {
			if evicted >= max {
				return
			}
			sl := &cm.slots[s]
			if sl.req == nil || limit > 0 && sl.req.weight > limit {
				continue
			}
			// Progress guard: a slot is preemptible only once it has
			// stepped past where this residency started, so every
			// admission cycle completes at least one timestep and a
			// preemption storm cannot livelock a stream.
			if preempted && sl.tau <= sl.resumedFrom {
				continue
			}
			e.evictOne(cm, s, sl, preempted)
			evicted++
		}
	}
	pass(1)
	if maxWeight == 0 && evicted < max {
		pass(0)
	}
	return evicted
}

// evictOne checkpoints one resident stream and requeues its request with
// a resume token. The request stays pending (admitted-but-unanswered),
// so the push bypasses the queue cap by design — eviction must never
// shed load the engine already accepted.
func (e *contEngine) evictOne(cm *contMachine, s int, sl *contSlot, preempted bool) {
	req := sl.req
	snap, err := e.kern.SnapshotSlot(cm.m, s, sl.tau, sl.steps)
	if err != nil {
		// Unsnapshottable slot: the stream cannot be moved, answer it.
		e.vacate(cm, s)
		e.answer(req, err)
		return
	}
	metrics.SnapshotCaptures.Add(1)
	metrics.SnapshotBytes.Add(int64(frame.Overhead + snap.Bytes()))
	if preempted {
		metrics.PreemptEvictions.Add(1)
	}
	tok := &resumeToken{
		data:      snap.Encode(),
		stats:     cm.m.Stats().Minus(sl.base),
		wait:      sl.admitted.Sub(req.enqueued),
		preempted: preempted,
	}
	req.resume = tok
	req.enqueued = time.Now()
	e.vacate(cm, s)
	e.queue.push(req)
}

// restore is the resume-token arm of admit: it loads the checkpoint into
// the slot's window and registers and points sl at the saved timestep
// instead of re-running StreamInit.
func (e *contEngine) restore(cm *contMachine, slot int, sl *contSlot, tok *resumeToken) error {
	snap, err := snapshot.Decode(tok.data)
	if err != nil {
		return err
	}
	if err := e.kern.RestoreSlot(cm.m, slot, snap); err != nil {
		return err
	}
	sl.tau = int(snap.Tau)
	sl.resumedFrom, sl.steps = sl.tau, int(snap.Steps)
	metrics.SnapshotRestores.Add(1)
	if tok.preempted {
		metrics.PreemptRestores.Add(1)
	}
	return nil
}

// clampNonNegative floors an over-consumed demand counter at zero.
func clampNonNegative(a *atomic.Int64) {
	for {
		v := a.Load()
		if v >= 0 || a.CompareAndSwap(v, 0) {
			return
		}
	}
}
