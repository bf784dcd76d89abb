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
// already-running batch — no drain-to-empty between batches. The engine
// starts no goroutine: the callers waiting on its requests run its
// machines' rounds themselves (see drive), one caller per machine at a
// time, so one lease's machines step on as many cores as there are
// callers driving them. Its stopper drains it the same way (closeBy).
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

	queue    fairQueue
	queueCap int
	machines []*contMachine

	// Load observability (LoadStats).
	served   atomic.Int64
	pending  atomic.Int64
	waitEWMA atomic.Int64 // admission wait ns, alpha = 1/4

	// preemptReq is outstanding explicit-preemption demand in slots
	// (posted by DataPlane.Preempt); each round consumes what it can evict.
	preemptReq atomic.Int64

	// mu orders submits (shared) against stop (exclusive). stopped and
	// halted only ever go from false to true (see stop).
	mu      sync.RWMutex
	stopped atomic.Bool
	halted  atomic.Bool
}

// contMachine is one machine and its batch slots. Its rounds run only
// under mu, which a caller driving it takes with TryLock and the engine's
// stopper with Lock (see drive and closeBy), so slot state needs no other
// lock.
type contMachine struct {
	mu sync.Mutex
	m  *accel.Machine

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
	req   *inferRequest
	tau   int // next timestep to execute
	steps int // total timesteps = len(req.inputs)
	// admitted and base are the admission time and the machine's stats
	// then. A restored stream's admitted is moved forward by its earlier
	// queue wait and its base back by its earlier work (its request's
	// enqueued is reset at eviction), so a residency's deltas from them
	// are the stream's totals.
	admitted time.Time
	base     accel.ExecStats

	// resumedFrom is the timestep this residency started at (0 for a
	// fresh admission, the snapshot's tau for a restore). A slot is only
	// preemptible once tau > resumedFrom, so every admission cycle makes
	// at least one step of progress — no preemption livelock.
	resumedFrom int
}

// weightKey names a weight set: a layer at a tile count, and the seed its
// weights derive from (InferOptions.Seed + leaseRecord.root).
type weightKey struct {
	spec  kernels.LayerSpec
	tiles int
	seed  int64
}

// weightSet is one model's weights, built once (load) for every engine of
// the leases bound to it: the kernel, whose image all their machines read,
// and its tiles, which all bind. Service.mu guards leases, their count.
type weightSet struct {
	key    weightKey
	once   sync.Once
	kern   *kernels.Kernel
	tiles  *accel.TileSet
	err    error
	leases int
}

// load builds the set once: the kernel, then its tiles.
func (w *weightSet) load() error {
	w.once.Do(func() {
		if w.kern, w.err = kernels.BuildRandom(w.key.spec, w.key.tiles, w.key.seed); w.err == nil {
			w.tiles, w.err = w.kern.LoadTiles()
		}
	})
	return w.err
}

// newContEngine builds the lease's engine over a loaded weight set, whose
// tiles its machines bind; they stay resident across every stream served.
func newContEngine(lease *Lease, w *weightSet, opts InferOptions) (*contEngine, error) {
	e := &contEngine{
		leaseID:  lease.ID,
		kern:     w.kern,
		opts:     opts,
		queueCap: opts.MaxBatch * opts.Machines * 8,
	}
	machines := make([]*contMachine, opts.Machines)
	for i := range machines {
		m, err := w.kern.NewBatchMachine(opts.MaxBatch)
		if err != nil {
			return nil, err
		}
		m.BindTiles(w.tiles)
		if err := m.Run(w.kern.SharedInit); err != nil {
			return nil, fmt.Errorf("rms: warming lease %d: %w", lease.ID, err)
		}
		ints := make([]int, 2*opts.MaxBatch)
		machines[i] = &contMachine{
			m:       m,
			slots:   make([]contSlot, opts.MaxBatch),
			streams: ints[:0:opts.MaxBatch],
			offs:    ints[opts.MaxBatch:opts.MaxBatch],
			half:    make([]fp16.Num, lease.Spec.Hidden),
			taken:   make([]*inferRequest, 0, opts.MaxBatch),
		}
	}
	e.machines = machines
	return e, nil
}

// submit enqueues a request, unless the engine is stopping or the queue is
// at its bound (load shed: ErrBusy, never block the caller).
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

// stop is the one way an engine stops: refuse new submits. A stopped
// engine's machines still serve everything already admitted; a halted
// one's take no further round, whatever they hold. Both flags only ever go
// from false to true. stop does not wait: the caller takes the machines
// and then answers or moves what they hold (closeBy, transplantTo).
//
// Each engine has exactly one stopper: whoever took it off its lease
// record (Release, Close, or the Resize that replaced it). So once it
// holds every machine, nothing races it over their slots.
func (e *contEngine) stop(halt bool) {
	e.mu.Lock() // waits out submits that saw the engine serving
	e.stopped.Store(true)
	if halt {
		e.halted.Store(true)
	}
	e.mu.Unlock()
}

// drive runs rounds for the caller of req. It visits each machine once,
// and steps one it finds free (TryLock) until req is answered or the
// machine and the queue have nothing left to step. Leaving a machine with a
// live cohort, or the queue with requests in it, it posts baton once it
// has unlocked: a caller whose TryLock failed did so before that unlock,
// so the baton is there when it waits. A halted engine is stepped no more
// and needs no baton: its stopper answers or moves what it holds.
func (e *contEngine) drive(req *inferRequest, baton chan struct{}) {
	for _, cm := range e.machines {
		if !cm.mu.TryLock() {
			continue
		}
		e.steps(cm, req)
		live := cm.occupied > 0
		cm.mu.Unlock()
		if (live || e.queue.depth() > 0) && !e.halted.Load() {
			post(baton)
		}
	}
}

// steps runs rounds of cm, whose mutex the caller holds, while cm has a
// live cohort or the queue holds requests, the engine is not halted, and
// req is unanswered (the stopper passes nil).
func (e *contEngine) steps(cm *contMachine, req *inferRequest) {
	for !e.halted.Load() && !answered(req) && (cm.occupied > 0 || e.queue.depth() > 0) {
		e.round(cm)
	}
}

// answered reports whether req has been answered; done is buffered 1 and
// sent on once. A nil req, the stopper's, never is.
func answered(req *inferRequest) bool { return req != nil && len(req.done) > 0 }

// post leaves the baton for a waiting caller; one already left is enough.
func post(baton chan struct{}) {
	select {
	case baton <- struct{}{}:
	default:
	}
}

// hold is how the stopper takes the machines: each in turn, with Lock,
// drained (see steps) unless the engine is halted, and kept.
func (e *contEngine) hold() {
	for _, cm := range e.machines {
		cm.mu.Lock()
		e.steps(cm, nil)
	}
}

// unlockAll releases every machine hold took.
func (e *contEngine) unlockAll() {
	for _, cm := range e.machines {
		cm.mu.Unlock()
	}
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

// close stops admission, serves everything already admitted, and takes
// the machines.
func (e *contEngine) close() { e.closeBy(time.Time{}) }

// closeBy is close bounded by a deadline (the zero time: none): once it
// passes the engine is halted, the streams still resident are abandoned,
// and their callers, like those of every queued request, are answered
// ErrLeaseClosing. Returns how many streams were abandoned (0 for a clean
// drain).
//
// The stopper drains each machine as it takes it (hold). A stopped
// engine's queue only grows by a machine's own evictions, so work can only
// move from a machine to one not yet taken: once the stopper holds them
// all, they are idle and the queue is empty, unless the engine halted.
// Callers still drive the machines not yet taken meanwhile.
func (e *contEngine) closeBy(deadline time.Time) int {
	e.stop(false)
	if !deadline.IsZero() {
		timer := time.AfterFunc(time.Until(deadline), func() { e.stop(true) })
		defer timer.Stop()
	}
	e.hold()
	defer e.unlockAll()
	return e.abandon()
}

// transplantTo halts the engine, takes its machines, and moves every
// request it holds — resident in a slot or queued — to dst: residents are
// checkpointed so they resume on dst's machines mid-sequence. A request
// dst refuses (it is closing too) is answered with that error.
func (e *contEngine) transplantTo(dst *contEngine) {
	e.stop(true)
	e.hold()
	defer e.unlockAll()
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

// abandon answers ErrLeaseClosing to every request the machines, all held
// by the stopper, still hold: the streams still resident are abandoned —
// counted, not checkpointed, since there is no restore coming — and so is
// every queued caller. Returns the abandoned-stream count; after a clean
// drain nothing is left and it returns 0.
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

// round is one turn of cm, under cm.mu: consume preemption demand, admit
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
// slots. One taken cohort counts as one batch (mlv_batches_flushed and the
// per-tenant batch counters), so batches ≤ served holds and
// riders/batches is the mean cohort a request was admitted with.
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
	e.install(cm, slot, &sl, now, tok)
	return true
}

// install makes sl resident in a free slot of cm, for a fresh stream and
// a restored one (tok, its resume token) alike.
func (e *contEngine) install(cm *contMachine, slot int, sl *contSlot, now time.Time, tok *resumeToken) {
	sl.admitted, sl.base = now, cm.m.Stats()
	if tok != nil {
		sl.admitted, sl.base = now.Add(tok.wait), sl.base.Minus(tok.stats)
	}
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
	cm.streams = append(cm.streams[:0], slot)
	cm.offs = append(cm.offs[:0], e.kern.SlotOffset(slot, 0))
	return cm.m.RunStreams(e.kern.StreamInit, e.kern.WindowBase(), cm.streams, cm.offs)
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
	// A preempted stream's earlier residencies are folded into admitted
	// and base, so the totals match a never-preempted run's.
	res.QueueWait = sl.admitted.Sub(req.enqueued)
	res.BatchStats = cm.m.Stats().Minus(sl.base)
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
	return LoadStats{
		QueueDepth: e.queue.depth(),
		Pending:    int(e.pending.Load()),
		Served:     e.served.Load(),
		Machines:   e.opts.Machines,
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
