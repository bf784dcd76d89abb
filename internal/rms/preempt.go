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
// latency-class streams); maxWeight == 0 allows any. ignoreProgress
// skips the livelock guard — evacuation and drain move every stream
// regardless of progress because they never re-admit on this engine.
// Caller must own cm (cmRunning).
func (e *contEngine) evictSlots(cm *contMachine, max, maxWeight int, preempted, ignoreProgress bool) int {
	if max <= 0 {
		return 0
	}
	evicted := 0
	pass := func(limit int) {
		for s, sl := range cm.slots {
			if evicted >= max {
				return
			}
			if sl == nil || sl.leaked {
				continue
			}
			if limit > 0 && sl.req.weight > limit {
				continue
			}
			// Progress guard: a slot is preemptible only once it has
			// stepped past where this residency started, so every
			// admission cycle completes at least one timestep and a
			// preemption storm cannot livelock a stream.
			if !ignoreProgress && sl.tau <= sl.resumedFrom {
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
	free := func() {
		cm.slots[s] = nil
		cm.occupied--
		cm.stepping--
		e.resident.Add(-1)
		metrics.SlotsActive.Add(-1)
	}
	snap, err := e.kern.SnapshotSlot(cm.m, s, sl.tau, sl.steps)
	if err != nil {
		// Unsnapshottable slot: the stream cannot be moved, answer it.
		free()
		e.pending.Add(-1)
		req.resp <- inferResponse{err: err}
		return
	}
	metrics.SnapshotCaptures.Add(1)
	metrics.SnapshotBytes.Add(int64(frame.Overhead + snap.Bytes()))
	if preempted {
		metrics.PreemptEvictions.Add(1)
	}
	tok := &resumeToken{
		data:      snap.Encode(),
		stats:     cm.m.Stats().Minus(sl.base).Plus(sl.carry),
		wait:      sl.carryWait + sl.admitted.Sub(req.enqueued),
		preempted: preempted,
	}
	if e.faults != nil && e.faults().LeakSnapshot && !e.leakedSnap.Swap(true) {
		// Injected bug: the checkpoint is dropped and the stream restarts
		// from scratch — the capture above never pairs with a restore.
		tok = nil
	}
	req.resume = tok
	req.enqueued = time.Now()
	free()
	e.queue.push(req)
}

// restore installs a checkpoint into a free slot (the resume-token arm
// of admit). It deliberately does not bump the Admissions counter: the
// stream was admitted when it first entered a slot, and the simtest
// admission model counts each request once.
func (e *contEngine) restore(cm *contMachine, req *inferRequest, tok *resumeToken, slot int, now time.Time, fail func(error) bool) bool {
	snap, err := snapshot.Decode(tok.data)
	if err != nil {
		return fail(err)
	}
	if err := e.kern.RestoreSlot(cm.m, slot, snap); err != nil {
		return fail(err)
	}
	tau := int(snap.Tau)
	if e.faults != nil && e.faults().RestoreAtZero {
		// Injected bug: resume at timestep 0 instead of the saved PC; the
		// restored register state is step-tau state, so outputs diverge
		// from the never-preempted twin.
		tau = 0
	}
	cm.slots[slot] = &contSlot{
		req: req, tau: tau, resumedFrom: tau, steps: int(snap.Steps),
		admitted: now, base: cm.m.Stats(),
		carry: tok.stats, carryWait: tok.wait,
	}
	cm.occupied++
	cm.stepping++
	e.resident.Add(1)
	metrics.SlotsActive.Add(1)
	metrics.SnapshotRestores.Add(1)
	if tok.preempted {
		metrics.PreemptRestores.Add(1)
	}
	ewmaUpdate(&e.waitEWMA, int64(now.Sub(req.enqueued)))
	metrics.AdmissionWaitNS.Set(e.waitEWMA.Load())
	return true
}

// preempt evicts up to n resident streams: synchronously from machines
// it can CAS-own while they are idle, and by posting the remainder as
// demand the running machines consume at their next rounds (kicked so
// nothing waits for organic traffic). Returns the synchronous count;
// the rest drains asynchronously.
func (e *contEngine) preempt(n int) int {
	if n <= 0 {
		return 0
	}
	metrics.PreemptRequests.Add(1)
	total := 0
	for _, cm := range e.machines {
		if total >= n {
			break
		}
		// CAS-owning an idle machine makes this goroutine its worker for
		// the duration, preserving the single-owner slot rule.
		if cm.state.CompareAndSwap(cmIdle, cmRunning) {
			total += e.evictSlots(cm, n-total, 0, true, false)
			e.park(cm)
		}
	}
	if total < n {
		e.preemptReq.Add(int64(n - total))
		e.kickAll()
	}
	return total
}

// kickAll schedules every idle machine (preemption demand and drains
// must not wait for organic submits to wake the pool).
func (e *contEngine) kickAll() {
	for _, cm := range e.machines {
		if cm.state.CompareAndSwap(cmIdle, cmQueued) {
			e.enqueue(cm)
		}
	}
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

// adopt enqueues a request moved from another engine of the same lease
// (transplant). The request was already admitted there, so the queue cap
// does not apply; pending transfers with it.
func (e *contEngine) adopt(req *inferRequest) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrLeaseClosing
	}
	e.pending.Add(1)
	e.queue.push(req)
	e.kick()
	return nil
}

// transplantTo moves every request this engine holds — queued or
// resident in a slot — to dst, checkpointing resident streams so they
// resume on dst's machines mid-sequence. Admission stops first; the
// engine is left drained (pending 0) but its workers still need close()
// to join. Returns the number of requests moved.
func (e *contEngine) transplantTo(dst *contEngine) int {
	e.mu.Lock()
	already := e.closed
	e.closed = true
	e.mu.Unlock()
	e.evacuating.Store(true)
	if !already {
		close(e.done)
	}
	moved := 0
	for e.pending.Load() > 0 {
		e.kickAll()
		if take := int(e.pending.Load()); take > 0 {
			for _, req := range e.queue.take(take) {
				e.pending.Add(-1)
				if err := dst.adopt(req); err != nil {
					req.resp <- inferResponse{err: err}
					continue
				}
				moved++
			}
		}
		if e.pending.Load() > 0 {
			// Residents are still being checkpointed into the queue by
			// the evacuating run rounds.
			time.Sleep(20 * time.Microsecond)
		}
	}
	return moved
}

// closeWithin closes the engine like close(), but bounded: if the
// graceful drain has not finished within d, resident streams are
// checkpointed and abandoned (callers answered ErrLeaseClosing) and
// queued requests are shed the same way. Returns how many in-flight
// streams were checkpointed at the deadline (0 for a clean drain).
func (e *contEngine) closeWithin(d time.Duration) int {
	e.mu.Lock()
	already := e.closed
	e.closed = true
	e.mu.Unlock()
	if !already {
		close(e.done)
	}
	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-drained:
		return 0
	case <-timer.C:
	}
	e.drainCheckpoint.Store(true)
	for e.pending.Load() > 0 {
		e.kickAll()
		for _, req := range e.queue.take(64) {
			e.pending.Add(-1)
			req.resp <- inferResponse{err: ErrLeaseClosing}
		}
		if e.pending.Load() > 0 {
			time.Sleep(20 * time.Microsecond)
		}
	}
	<-drained
	return int(e.drainCheckpointed.Load())
}

// checkpointAbandon is the drain-deadline round: every resident stream
// is checkpointed (counted as a drain checkpoint, not a preemption
// capture — there is no restore coming) and its caller answered
// ErrLeaseClosing. Caller must own cm (cmRunning).
func (e *contEngine) checkpointAbandon(cm *contMachine) {
	for s, sl := range cm.slots {
		if sl == nil || sl.leaked {
			continue
		}
		req := sl.req
		if snap, err := e.kern.SnapshotSlot(cm.m, s, sl.tau, sl.steps); err == nil {
			metrics.DrainCheckpoints.Add(1)
			metrics.SnapshotBytes.Add(int64(frame.Overhead + snap.Bytes()))
			e.drainCheckpointed.Add(1)
		}
		cm.slots[s] = nil
		cm.occupied--
		cm.stepping--
		e.resident.Add(-1)
		metrics.SlotsActive.Add(-1)
		e.pending.Add(-1)
		req.resp <- inferResponse{err: ErrLeaseClosing}
	}
}
