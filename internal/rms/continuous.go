package rms

import (
	"fmt"
	"runtime"
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
// already-running batch — no drain-to-empty between batches. The machine
// pool is sharded across worker goroutines with per-shard run queues and
// work stealing, so one lease's machines execute step rounds on every core
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
	faults  func() Faults

	queue    *fairQueue
	queueCap int

	shards   []*engineShard
	machines []*contMachine
	wg       sync.WaitGroup

	// Load observability (LoadStats).
	served   atomic.Int64
	cohorts  atomic.Int64 // fresh admission cohorts (LoadStats.Batches)
	pending  atomic.Int64
	waitEWMA atomic.Int64 // admission wait ns, alpha = 1/4

	// preemptReq is outstanding explicit-preemption demand in slots;
	// each run round consumes what it can evict (see preempt.go).
	preemptReq atomic.Int64
	// mode is what every run round obeys (see stop); dst is where
	// modeEvacuate rounds hand requests (see transplantTo).
	mode              atomic.Int32
	dst               *contEngine
	drainCheckpointed atomic.Int64

	// leakedSlot arms the LeakSlot fault at most once per engine, so the
	// injected capacity leak never starves serving outright; leakedSnap
	// does the same for the LeakSnapshot fault.
	leakedSlot atomic.Bool
	leakedSnap atomic.Bool

	// mu orders submits (shared) against stop (exclusive). done is closed
	// once, when a stopping engine's last pending request is settled: the
	// workers' exit signal.
	mu       sync.RWMutex
	done     chan struct{}
	doneOnce sync.Once
}

// engineShard is one scheduler shard: a mutex-guarded run queue of
// machines plus a one-token wake channel for its worker. Workers pop
// their own queue from the front and steal from other shards' tails.
type engineShard struct {
	mu   sync.Mutex
	runq []*contMachine
	wake chan struct{}
}

func (s *engineShard) pop() *contMachine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.runq) == 0 {
		return nil
	}
	cm := s.runq[0]
	s.runq = s.runq[1:]
	return cm
}

func (s *engineShard) steal() *contMachine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.runq) == 0 {
		return nil
	}
	cm := s.runq[len(s.runq)-1]
	s.runq = s.runq[:len(s.runq)-1]
	return cm
}

// contMachine state machine: idle (no slots, not scheduled) → queued (in
// a shard run queue) → running (a worker owns it for one step round) →
// queued | idle. A machine is in at most one run queue; only the owning
// worker touches slots, so slot state needs no lock — the shard mutex
// hand-off orders the accesses.
const (
	cmIdle int32 = iota
	cmQueued
	cmRunning
)

type contMachine struct {
	m     *accel.Machine
	home  int // home shard
	state atomic.Int32

	slots    []*contSlot // len MaxBatch; nil = free
	occupied int         // non-nil slots, including leaked ones
	stepping int         // occupied minus leaked: the live cohort

	// Scratch reused across rounds so the steady state is allocation-free;
	// half carries one timestep between float64 and the machine's binary16.
	streams, offs []int
	half          []fp16.Num
}

// contSlot is one admitted stream's residency in a batch slot.
type contSlot struct {
	req      *inferRequest
	tau      int // next timestep to execute
	steps    int // total timesteps = len(req.inputs)
	admitted time.Time
	base     accel.ExecStats
	leaked   bool // LeakSlot fault: slot permanently lost

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

func newContEngine(lease *Lease, opts InferOptions, faults func() Faults) (*contEngine, error) {
	kern, err := buildKernel(lease, opts)
	if err != nil {
		return nil, err
	}
	// One scheduler shard (run queue + worker, stealing from the others)
	// per P, but never more than there are machines to run.
	shardN := min(runtime.GOMAXPROCS(0), opts.Machines)
	e := &contEngine{
		leaseID:  lease.ID,
		kern:     kern,
		opts:     opts,
		faults:   faults,
		queue:    newFairQueue(),
		queueCap: opts.MaxBatch * opts.Machines * 8,
		done:     make(chan struct{}),
	}
	for i := 0; i < shardN; i++ {
		e.shards = append(e.shards, &engineShard{wake: make(chan struct{}, 1)})
	}
	for i := 0; i < opts.Machines; i++ {
		m, err := kern.NewBatchMachine(opts.MaxBatch)
		if err != nil {
			return nil, err
		}
		// Load the weight tiles once; they stay resident across every
		// stream the machine will ever serve.
		if err := m.Run(kern.SharedInit); err != nil {
			return nil, fmt.Errorf("rms: warming lease %d: %w", lease.ID, err)
		}
		e.machines = append(e.machines, &contMachine{
			m: m, home: i % shardN,
			slots:   make([]*contSlot, opts.MaxBatch),
			streams: make([]int, 0, opts.MaxBatch),
			offs:    make([]int, 0, opts.MaxBatch),
			half:    make([]fp16.Num, lease.Spec.Hidden),
		})
	}
	for i := range e.shards {
		e.wg.Add(1)
		go e.worker(i)
	}
	return e, nil
}

// submit enqueues a request and kicks an idle machine, unless the engine
// is stopping or the queue is at its bound (load shed: ErrBusy, never block
// the caller).
func (e *contEngine) submit(req *inferRequest) error { return e.accept(req, e.queueCap) }

// accept is submit under a given bound on pending. A transplant passes
// none: the engine its requests come from admitted them already, and
// pending moves with them.
func (e *contEngine) accept(req *inferRequest, bound int) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.mode.Load() != modeServe {
		return ErrLeaseClosing
	}
	if int(e.pending.Load()) >= bound {
		return ErrBusy
	}
	e.pending.Add(1)
	e.queue.push(req)
	e.kick()
	return nil
}

// kick schedules one idle machine to pick the queue up. If every machine
// is queued or running, nothing to do — running machines re-admit from
// the queue every round and requeue themselves while work remains.
func (e *contEngine) kick() {
	for _, cm := range e.machines {
		if cm.state.CompareAndSwap(cmIdle, cmQueued) {
			e.enqueue(cm)
			return
		}
	}
}

func (e *contEngine) enqueue(cm *contMachine) {
	sh := e.shards[cm.home]
	sh.mu.Lock()
	sh.runq = append(sh.runq, cm)
	sh.mu.Unlock()
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// dequeue pops the worker's own shard, then tries to steal from the
// other shards' tails.
func (e *contEngine) dequeue(worker int) (cm *contMachine, stolen bool) {
	if cm := e.shards[worker].pop(); cm != nil {
		return cm, false
	}
	n := len(e.shards)
	for i := 1; i < n; i++ {
		if cm := e.shards[(worker+i)%n].steal(); cm != nil {
			return cm, true
		}
	}
	return nil, false
}

// An engine serves until stop moves it to one of three exits; the mode
// only ever escalates, so a later, gentler stop changes nothing.
const (
	modeServe    int32 = iota
	modeDrain          // serve everything already admitted
	modeEvacuate       // checkpoint residents, hand every request to dst
	modeAbandon        // checkpoint residents, answer everyone ErrLeaseClosing
)

// stop is the one way an engine stops: refuse new submits, set the mode
// every round obeys from now on, wake every machine so none waits for
// traffic that will not come. It does not wait: the workers exit when the
// last pending request is settled, which wg.Wait observes.
func (e *contEngine) stop(mode int32) {
	e.mu.Lock() // waits out submits that saw modeServe
	if mode > e.mode.Load() {
		e.mode.Store(mode)
	}
	e.mu.Unlock()
	e.finishIfEmpty()
	e.kickAll()
}

// finishIfEmpty releases the workers of a stopping engine that holds no
// request. Nothing adds to pending once the mode has left modeServe, so a
// zero read here is final.
func (e *contEngine) finishIfEmpty() {
	if e.pending.Load() == 0 {
		e.doneOnce.Do(func() { close(e.done) })
	}
}

// settle takes one request off pending: it has been answered, or handed
// to another engine.
func (e *contEngine) settle() {
	if e.pending.Add(-1) == 0 && e.mode.Load() != modeServe {
		e.finishIfEmpty()
	}
}

// answer is the only place a request is answered, accounting first: a
// caller that has joined every request (the simtest harness) must find the
// slot gauge and pending already settled. resp is buffered, so the send
// cannot block.
func (e *contEngine) answer(req *inferRequest, resp inferResponse) {
	e.settle()
	req.resp <- resp
}

// close stops admission, serves everything already admitted, and joins the
// workers. Idempotent; concurrent closers all block until drained.
func (e *contEngine) close() { e.closeBy(time.Time{}) }

// closeBy is close bounded by a deadline (the zero time: none): streams
// still resident when it passes are checkpointed and abandoned, and their
// callers, like those of every queued request, are answered
// ErrLeaseClosing. Returns how many streams were checkpointed (0 for a
// clean drain).
func (e *contEngine) closeBy(deadline time.Time) int {
	e.stop(modeDrain)
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		select {
		case <-e.done:
		case <-timer.C:
			e.stop(modeAbandon)
		}
	}
	e.wg.Wait()
	return int(e.drainCheckpointed.Load())
}

// transplantTo moves every request this engine holds — queued or resident
// in a slot — to dst, checkpointing resident streams so they resume on
// dst's machines mid-sequence, and joins the workers.
func (e *contEngine) transplantTo(dst *contEngine) {
	e.dst = dst // before the mode that makes rounds read it
	e.stop(modeEvacuate)
	e.wg.Wait()
}

func (e *contEngine) worker(sh int) {
	defer e.wg.Done()
	for {
		if cm, stolen := e.dequeue(sh); cm != nil {
			e.runRound(cm, stolen)
			continue
		}
		select {
		case <-e.shards[sh].wake:
		case <-e.done:
			return
		}
	}
}

// runRound is one scheduler turn on one machine: admit from the fair
// queue into free slots, execute one step round over the resident
// cohort, retire finished streams, and reschedule. Taking at most one
// step per turn before requeueing keeps machines of the same shard (and
// leases sharing a worker) round-robin fair.
func (e *contEngine) runRound(cm *contMachine, stolen bool) {
	cm.state.Store(cmRunning)
	if stolen {
		metrics.Steals.Add(1)
	}
	switch e.mode.Load() {
	case modeAbandon:
		e.checkpointAbandon(cm)
		e.park(cm)
		return
	case modeEvacuate:
		e.evacuate(cm)
		e.park(cm)
		return
	}
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
		if reqs := e.queue.take(free); len(reqs) > 0 {
			e.admitCohort(cm, reqs)
		}
	}
	if cm.stepping == 0 {
		e.park(cm)
		return
	}

	cm.streams = cm.streams[:0]
	cm.offs = cm.offs[:0]
	for s, sl := range cm.slots {
		if sl == nil || sl.leaked {
			continue
		}
		cm.streams = append(cm.streams, s)
		cm.offs = append(cm.offs, e.kern.SlotOffset(s, sl.tau))
	}
	cohort := len(cm.streams)
	if err := cm.m.RunStreams(e.kern.Step, e.kern.WindowBase(), cm.streams, cm.offs); err != nil {
		e.failCohort(cm, err)
		e.park(cm)
		return
	}
	metrics.SlotRounds.Add(1)
	metrics.SlotRoundOccupancy.Add(int64(cohort))
	for _, s := range cm.streams {
		sl := cm.slots[s]
		sl.tau++
		if sl.tau >= sl.steps {
			e.retire(cm, s, sl, cohort)
		}
	}

	if cm.stepping > 0 {
		cm.state.Store(cmQueued)
		e.enqueue(cm)
		return
	}
	e.park(cm)
}

// park sets the machine idle, then re-checks the queue: a submit that
// raced the machine's last (empty) take would otherwise be stranded with
// every machine idle and no wake owed. The CAS loses to a concurrent
// kick, which has already enqueued the machine.
func (e *contEngine) park(cm *contMachine) {
	cm.state.Store(cmIdle)
	if e.queue.depth() > 0 && cm.state.CompareAndSwap(cmIdle, cmQueued) {
		e.enqueue(cm)
	}
}

// admitCohort installs a batch of freshly popped requests into free
// slots. One taken cohort counts as one batch (mlv_batches_flushed,
// LoadStats.Batches, the per-tenant batch counters), so batches ≤ served
// holds and riders/batches is the mean cohort a request was admitted with.
func (e *contEngine) admitCohort(cm *contMachine, reqs []*inferRequest) {
	now := time.Now()
	intoRunning := cm.stepping > 0
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
	slot := slices.Index(cm.slots, nil)
	var err error
	sl := &contSlot{req: req, steps: len(req.inputs)}
	tok := req.resume
	switch {
	case slot < 0:
		// Cannot happen: take() is bounded by the free-slot count.
		err = fmt.Errorf("rms: lease %d: no free slot", e.leaseID)
	case tok != nil:
		req.resume = nil
		err = e.restore(cm, slot, sl, tok)
	default:
		err = e.initStream(cm, slot, req)
	}
	if err != nil {
		e.answer(req, inferResponse{err: err})
		return false
	}
	if tok == nil {
		// Only a fresh stream counts: a restored one was admitted when it
		// first entered a slot, and the simtest admission model counts
		// each request once.
		metrics.Admissions.Add(1)
	}
	e.install(cm, slot, sl, now)
	return true
}

// install makes sl resident in a free slot of cm, for a fresh stream and
// a restored one alike.
func (e *contEngine) install(cm *contMachine, slot int, sl *contSlot, now time.Time) {
	sl.admitted, sl.base = now, cm.m.Stats()
	cm.slots[slot] = sl
	cm.occupied++
	cm.stepping++
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
	cm.slots[s] = nil
	cm.occupied--
	cm.stepping--
	metrics.SlotsActive.Add(-1)
}

// retire answers a finished stream and frees its slot.
func (e *contEngine) retire(cm *contMachine, s int, sl *contSlot, cohort int) {
	req := sl.req
	// One backing array holds every timestep's outputs.
	h := e.kern.Spec.Hidden
	back, outs := make([]float64, sl.steps*h), make([][]float64, sl.steps)
	var rerr error
	for t := range outs {
		outs[t] = back[t*h : (t+1)*h : (t+1)*h]
		if rerr = e.kern.ReadOutputStream(cm.m, s, t, outs[t], cm.half); rerr != nil {
			break
		}
	}
	resp := inferResponse{err: rerr}
	if rerr == nil {
		resp = inferResponse{result: &InferResult{
			LeaseID: e.leaseID,
			Outputs: outs,
			// BatchSize is the retire round's co-resident cohort;
			// BatchStats spans the slot's residency, so it includes the
			// co-riders' overlapping work.
			BatchSize: cohort,
			Stream:    s,
			// A preempted stream's earlier residencies carry into the
			// final report, so the totals match a never-preempted run's.
			QueueWait:  sl.carryWait + sl.admitted.Sub(req.enqueued),
			BatchStats: cm.m.Stats().Minus(sl.base).Plus(sl.carry),
		}}
	}
	e.served.Add(1)
	metrics.InfersServed.Add(1)
	if req.tenant != "" && !(e.faults != nil && e.faults().SkipTenantServedMetric) {
		metrics.TenantServed.Add(req.tenant, 1)
	}
	if e.faults != nil && e.faults().LeakSlot && !e.leakedSlot.Swap(true) {
		// Injected bug: skip vacate. The slot stays occupied for good (a
		// one-off capacity loss the simtest slot-conservation invariant
		// must catch: mlv_slots_active stays elevated at quiescence); it
		// only leaves the live cohort, so the machine can still park.
		sl.req, sl.leaked = nil, true
		cm.stepping--
	} else {
		e.vacate(cm, s)
	}
	e.answer(req, resp)
}

// failCohort answers every live slot with err and frees them; a step
// round that failed has no per-stream result to salvage.
func (e *contEngine) failCohort(cm *contMachine, err error) {
	for _, s := range cm.streams {
		req := cm.slots[s].req
		e.vacate(cm, s)
		e.answer(req, inferResponse{err: err})
	}
}

func (e *contEngine) load() LoadStats {
	inFlight := 0
	for _, cm := range e.machines {
		if cm.state.Load() != cmIdle {
			inFlight++
		}
	}
	return LoadStats{
		QueueDepth:   e.queue.depth(),
		InFlight:     inFlight,
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
