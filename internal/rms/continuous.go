package rms

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
)

// contEngine is one lease's continuous-batching serving state: the
// compiled kernel, a DRR fair queue, and machines that keep persistent
// batch slots. A stream that finishes retires its slot immediately and the
// next request from the fair queue is admitted into the freed slot of the
// already-running batch — no drain-to-empty between batches. Every machine
// runs on its own goroutine (see run), and the Go scheduler spreads those
// over the cores, so one lease's machines execute step rounds on every core
// at once.
//
// Bit-identity: the kernel's Step program reads and writes only the
// slot's private banked window and vector registers, and mv_mul computes
// each stream's product independently, so a stream's outputs are
// byte-identical to a solo run of the monolithic program regardless of
// which cohorts it shares step rounds with (see kernels.Kernel and
// TestStepProgramsMatchMonolithic).
type contEngine struct {
	leaseID int
	kern    *kernels.Kernel
	opts    InferOptions

	queue    *fairQueue
	queueCap int
	machines []*contMachine
	wg       sync.WaitGroup // one count per machine goroutine

	// Load observability (LoadStats).
	served   atomic.Int64
	cohorts  atomic.Int64 // fresh admission cohorts (LoadStats.Batches)
	pending  atomic.Int64
	waitEWMA atomic.Int64 // admission wait ns, alpha = 1/4

	// preemptReq is outstanding explicit-preemption demand in slots
	// (posted by DataPlane.Preempt); each round consumes what it can evict.
	preemptReq atomic.Int64

	// mu orders submits (shared) against stop (exclusive). stopped and
	// halted only ever go from false to true (see stop and await).
	mu      sync.RWMutex
	stopped atomic.Bool
	halted  atomic.Bool
}

// contMachine is one machine and its batch slots. Only the machine's own
// goroutine touches them, and the engine's stopper once that goroutine is
// joined, so slot state needs no lock.
type contMachine struct {
	m *accel.Machine

	slots    []contSlot // len MaxBatch; the zero value = free
	occupied int        // non-free slots: the live cohort

	// Scratch reused across rounds so the steady state is allocation-free;
	// half carries one timestep between float64 and the machine's binary16.
	streams, offs []int
	half          []fp16.Num
	taken         []*inferRequest // one round's admissions
}

// contSlot is one admitted stream's residency in a batch slot. req is nil
// in a free slot.
type contSlot struct {
	req      *inferRequest
	tau      int // next timestep to execute
	steps    int // total timesteps = len(req.inputs)
	admitted time.Time
	base     accel.ExecStats

	// resumedFrom is the timestep this residency started at (0 for a
	// fresh admission, the snapshot's tau for a restore). A slot is only
	// preemptible once tau > resumedFrom, so every admission cycle makes
	// at least one step of progress — no preemption livelock.
	resumedFrom int
	// carry folds in the work and queue wait accrued in earlier
	// residencies of a preempted stream.
	carry     accel.ExecStats
	carryWait time.Duration
}

// newContEngine builds the lease's engine over kern, or if nil over per-lease
// weights (Seed + lease id stands in for a real deployment's model upload).
func newContEngine(lease *Lease, kern *kernels.Kernel, opts InferOptions) (*contEngine, error) {
	if kern == nil {
		var err error
		if kern, err = kernels.BuildRandom(lease.Spec, opts.Tiles, opts.Seed+int64(lease.ID)); err != nil {
			return nil, fmt.Errorf("rms: building kernel for lease %d: %w", lease.ID, err)
		}
	}
	e := &contEngine{
		leaseID:  lease.ID,
		kern:     kern,
		opts:     opts,
		queue:    newFairQueue(),
		queueCap: opts.MaxBatch * opts.Machines * 8,
	}
	machines := make([]*contMachine, opts.Machines)
	for i := range machines {
		m, err := kern.NewBatchMachine(opts.MaxBatch)
		if err != nil {
			return nil, err
		}
		// Machine 0 quantizes the weight tiles, once per lease; the rest bind
		// them read-only. They stay resident across every stream served.
		if i > 0 {
			m.ShareTiles(machines[0].m)
		}
		if err := m.Run(kern.SharedInit); err != nil {
			return nil, fmt.Errorf("rms: warming lease %d: %w", lease.ID, err)
		}
		machines[i] = &contMachine{
			m:       m,
			slots:   make([]contSlot, opts.MaxBatch),
			streams: make([]int, 0, opts.MaxBatch),
			offs:    make([]int, 0, opts.MaxBatch),
			half:    make([]fp16.Num, lease.Spec.Hidden),
			taken:   make([]*inferRequest, 0, opts.MaxBatch),
		}
	}
	e.machines = machines
	e.wg.Add(len(machines))
	for _, cm := range machines {
		go e.run(cm)
	}
	return e, nil
}

// submit enqueues a request, waking a parked machine, unless the engine is
// stopping or the queue is at its bound (load shed: ErrBusy, never block
// the caller).
func (e *contEngine) submit(req *inferRequest) error { return e.accept(req, e.queueCap) }

// accept is submit under a given bound on pending. A transplant passes
// none: the engine its requests come from admitted them already, and
// pending moves with them.
func (e *contEngine) accept(req *inferRequest, bound int) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.stopped.Load() {
		return ErrLeaseClosing
	}
	if int(e.pending.Load()) >= bound {
		return ErrBusy
	}
	e.pending.Add(1)
	e.queue.push(req)
	return nil
}

// stop is the one way an engine stops: refuse new submits, and wake every
// parked machine to apply the exit rule in await. A stopped engine's
// machines still serve everything already admitted; a halted one's leave
// at their next await, whatever they hold. Both flags only ever go from
// false to true. stop does not wait: the caller joins the machines with
// wg.Wait and then answers or moves what they left (closeBy, transplantTo).
//
// Each engine has exactly one stopper: whoever removed it from the data
// plane's table, or Resize for an engine it never installed. So nothing
// after wg.Wait races another caller over the machines' slots.
func (e *contEngine) stop(halt bool) {
	e.mu.Lock() // waits out submits that saw the engine serving
	e.stopped.Store(true)
	if halt {
		e.halted.Store(true)
	}
	e.mu.Unlock()
	// Under the queue's mutex, so the broadcast cannot fall between a
	// machine's check in await and its wait.
	e.queue.mu.Lock()
	e.queue.wake.Broadcast()
	e.queue.mu.Unlock()
}

// answer is the only place a request is answered, accounting first: a
// caller that has joined every request (the simtest harness) must find the
// slot gauge and pending already settled. A request is answered once and
// done is buffered, so the send cannot block; after it, req and the result
// it carries are its caller's.
func (e *contEngine) answer(req *inferRequest, err error) {
	e.pending.Add(-1)
	req.err = err
	req.done <- struct{}{}
}

// close stops admission, serves everything already admitted, and joins the
// machines.
func (e *contEngine) close() { e.closeBy(time.Time{}) }

// closeBy is close bounded by a deadline (the zero time: none): once it
// passes the machines are halted, the streams still resident are
// abandoned, and their callers, like those of every queued request, are
// answered ErrLeaseClosing. Returns how many streams were abandoned (0 for
// a clean drain).
func (e *contEngine) closeBy(deadline time.Time) int {
	e.stop(false)
	if !deadline.IsZero() {
		timer := time.AfterFunc(time.Until(deadline), func() { e.stop(true) })
		defer timer.Stop()
	}
	e.wg.Wait()
	return e.abandon()
}

// transplantTo halts the engine, joins its machines, and moves every
// request it holds — resident in a slot or queued — to dst: residents are
// checkpointed so they resume on dst's machines mid-sequence. A request
// dst refuses (it is closing too) is answered with that error.
func (e *contEngine) transplantTo(dst *contEngine) {
	e.stop(true)
	e.wg.Wait()
	for _, cm := range e.machines {
		e.evictSlots(cm, len(cm.slots), 0, false)
	}
	for _, req := range e.queue.take(nil, int(e.pending.Load())) {
		if err := dst.accept(req, math.MaxInt); err != nil {
			e.answer(req, err)
			continue
		}
		e.pending.Add(-1) // pending moved with the request
	}
}

// abandon answers ErrLeaseClosing to every request a joined engine's
// machines left: the streams still resident are abandoned — counted, not
// checkpointed, since there is no restore coming — and so is every queued
// caller. Returns the abandoned-stream count; after a clean drain nothing
// is left and it returns 0.
func (e *contEngine) abandon() int {
	n := 0
	for _, cm := range e.machines {
		for s := range cm.slots {
			if req := cm.slots[s].req; req != nil {
				n++
				e.vacate(cm, s)
				e.answer(req, ErrLeaseClosing)
			}
		}
	}
	metrics.DrainAbandoned.Add(int64(n))
	for _, req := range e.queue.take(nil, int(e.pending.Load())) {
		e.answer(req, ErrLeaseClosing)
	}
	return n
}

// run is cm's goroutine, the only code that touches cm's slots while the
// engine runs: rounds while there is work, parked in await while there is
// none, until await's exit rule holds.
func (e *contEngine) run(cm *contMachine) {
	defer e.wg.Done()
	for e.await(cm) {
		e.round(cm)
	}
}

// await returns true at once while cm has a live cohort. Otherwise it parks
// cm on the queue's wake until a request is queued or the engine stops.
// It returns false once the engine is halted, or once it is stopped and cm
// has no live cohort and the queue is empty. That rule is local, yet the
// last machine to leave finds nothing queued: a stopped engine's queue
// only grows by a running machine's own evictions, and that machine takes
// them back in the same round. The emptiness check and the wait are one
// critical section under the queue's mutex, which push holds to grow the
// queue (it signals after) and stop holds to broadcast, so no wake-up can
// fall between them.
func (e *contEngine) await(cm *contMachine) bool {
	if cm.occupied > 0 {
		return !e.halted.Load()
	}
	q := e.queue
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !e.stopped.Load() {
		q.parked++
		q.wake.Wait()
		q.parked--
	}
	return q.size > 0 && !e.halted.Load()
}

// round is one turn of cm's goroutine: consume preemption demand, admit
// from the fair queue into free slots, execute one step round over the
// live cohort, and retire finished streams.
func (e *contEngine) round(cm *contMachine) {
	// Explicit preemption demand: evict what this machine can supply,
	// lowest priority class first.
	if want := e.preemptReq.Load(); want > 0 {
		if n := e.evictSlots(cm, int(want), 0, true); n > 0 {
			if e.preemptReq.Add(-int64(n)) < 0 {
				clampNonNegative(&e.preemptReq)
			}
		}
	}
	// Automatic preemption: a full machine evicts batch-class streams
	// while latency-class requests wait in the fair queue, so priority is
	// preemptive rather than drain-and-hope.
	if e.opts.Preempt && cm.occupied >= e.opts.MaxBatch {
		if lw := e.queue.latencyDepth(); lw > 0 {
			if n := e.evictSlots(cm, lw, 1, true); n > 0 {
				metrics.PreemptRequests.Add(1)
			}
		}
	}
	if free := e.opts.MaxBatch - cm.occupied; free > 0 {
		if cm.taken = e.queue.take(cm.taken, free); len(cm.taken) > 0 {
			e.admitCohort(cm, cm.taken)
		}
	}
	if cm.occupied == 0 {
		return
	}

	cm.streams = cm.streams[:0]
	cm.offs = cm.offs[:0]
	for s := range cm.slots {
		if sl := &cm.slots[s]; sl.req != nil {
			cm.streams = append(cm.streams, s)
			cm.offs = append(cm.offs, e.kern.SlotOffset(s, sl.tau))
		}
	}
	cohort := len(cm.streams)
	if err := cm.m.RunStreams(e.kern.Step, e.kern.WindowBase(), cm.streams, cm.offs); err != nil {
		e.failCohort(cm, err)
		return
	}
	metrics.SlotRounds.Add(1)
	metrics.SlotRoundOccupancy.Add(int64(cohort))
	for _, s := range cm.streams {
		sl := &cm.slots[s]
		sl.tau++
		if sl.tau >= sl.steps {
			e.retire(cm, s, sl, cohort)
		}
	}
}

// admitCohort installs a batch of freshly popped requests into free
// slots. One taken cohort counts as one batch (mlv_batches_flushed,
// LoadStats.Batches, the per-tenant batch counters), so batches ≤ served
// holds and riders/batches is the mean cohort a request was admitted with.
func (e *contEngine) admitCohort(cm *contMachine, reqs []*inferRequest) {
	now := time.Now()
	intoRunning := cm.occupied > 0
	fresh := 0
	riders := map[string]int64{}
	for _, req := range reqs {
		resumed := req.resume != nil
		if e.admit(cm, req, now) && !resumed {
			// Restored streams already rode (and were counted in) the
			// batch of their first admission; only fresh admissions make
			// a new cohort.
			fresh++
			if intoRunning {
				metrics.AdmissionsIntoRunning.Add(1)
			}
			if req.tenant != "" {
				riders[req.tenant]++
			}
		}
	}
	if fresh == 0 {
		return
	}
	e.cohorts.Add(1)
	metrics.BatchesFlushed.Add(1)
	for id, n := range riders {
		metrics.TenantBatchRiders.Add(id, n)
		metrics.TenantBatches.Add(id, 1)
	}
}

// admit puts one request into a free slot: a fresh one has its inputs
// written and the stream-init program run (bias loads, state zeroing), a
// preempted or transplanted one has its checkpoint restored (see restore).
// Reports whether the request now occupies a slot; on error the request
// is answered here.
func (e *contEngine) admit(cm *contMachine, req *inferRequest, now time.Time) bool {
	slot := slices.Index(cm.slots, contSlot{})
	var err error
	sl := contSlot{req: req, steps: len(req.inputs)}
	tok := req.resume
	switch {
	case slot < 0:
		// Cannot happen: take() is bounded by the free-slot count.
		err = fmt.Errorf("rms: lease %d: no free slot", e.leaseID)
	case tok != nil:
		req.resume = nil
		err = e.restore(cm, slot, &sl, tok)
	default:
		err = e.initStream(cm, slot, req)
	}
	if err != nil {
		e.answer(req, err)
		return false
	}
	if tok == nil {
		// Only a fresh stream counts: a restored one was admitted when it
		// first entered a slot, and the simtest admission model counts
		// each request once.
		metrics.Admissions.Add(1)
	}
	e.install(cm, slot, &sl, now)
	return true
}

// install makes sl resident in a free slot of cm, for a fresh stream and
// a restored one alike.
func (e *contEngine) install(cm *contMachine, slot int, sl *contSlot, now time.Time) {
	sl.admitted, sl.base = now, cm.m.Stats()
	cm.slots[slot] = *sl
	cm.occupied++
	metrics.SlotsActive.Add(1)
	ewmaUpdate(&e.waitEWMA, int64(now.Sub(sl.req.enqueued)))
	metrics.AdmissionWaitNS.Set(e.waitEWMA.Load())
}

func (e *contEngine) initStream(cm *contMachine, slot int, req *inferRequest) error {
	for t, x := range req.inputs {
		if err := e.kern.SetInputStream(cm.m, slot, t, x, cm.half); err != nil {
			return err
		}
	}
	return cm.m.RunStreams(e.kern.StreamInit, e.kern.WindowBase(),
		[]int{slot}, []int{e.kern.SlotOffset(slot, 0)})
}

// vacate frees slot s of cm; the caller answers or requeues its request.
func (e *contEngine) vacate(cm *contMachine, s int) {
	cm.slots[s] = contSlot{}
	cm.occupied--
	metrics.SlotsActive.Add(-1)
}

// retire answers a finished stream and frees its slot. It reads the
// outputs into the result the submitter attached, shaped one row per
// timestep, and allocates nothing.
func (e *contEngine) retire(cm *contMachine, s int, sl *contSlot, cohort int) {
	req, res := sl.req, sl.req.res
	var rerr error
	for t := 0; t < len(res.Outputs) && rerr == nil; t++ {
		rerr = e.kern.ReadOutputStream(cm.m, s, t, res.Outputs[t], cm.half)
	}
	res.LeaseID = e.leaseID
	// BatchSize is the retire round's co-resident cohort; BatchStats spans
	// the slot's residency, so it includes the co-riders' overlapping work.
	res.BatchSize, res.Stream = cohort, s
	// A preempted stream's earlier residencies carry into the final report,
	// so the totals match a never-preempted run's.
	res.QueueWait = sl.carryWait + sl.admitted.Sub(req.enqueued)
	res.BatchStats = cm.m.Stats().Minus(sl.base).Plus(sl.carry)
	e.served.Add(1)
	metrics.InfersServed.Add(1)
	if req.tenant != "" {
		metrics.TenantServed.Add(req.tenant, 1)
	}
	e.vacate(cm, s)
	e.answer(req, rerr)
}

// failCohort answers every live slot with err and frees them; a step
// round that failed has no per-stream result to salvage.
func (e *contEngine) failCohort(cm *contMachine, err error) {
	for _, s := range cm.streams {
		req := cm.slots[s].req
		e.vacate(cm, s)
		e.answer(req, err)
	}
}

func (e *contEngine) load() LoadStats {
	q := e.queue
	q.mu.Lock()
	depth, parked := q.size, q.parked
	q.mu.Unlock()
	return LoadStats{
		QueueDepth:   depth,
		InFlight:     e.opts.Machines - parked,
		Pending:      int(e.pending.Load()),
		Served:       e.served.Load(),
		Batches:      e.cohorts.Load(),
		Machines:     e.opts.Machines,
		AvgQueueWait: time.Duration(e.waitEWMA.Load()),
	}
}

// ewmaUpdate folds sample into the EWMA at a with alpha = 1/4.
func ewmaUpdate(a *atomic.Int64, sample int64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, old+(sample-old)/4) {
			return
		}
	}
}
