package rms

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/tenant"
)

// ErrLeaseClosing is returned by Infer when the lease's engine is shutting
// down (release or server drain).
var ErrLeaseClosing = errors.New("rms: lease is closing")

// ErrBusy is returned when a lease's serving queue is full — the cluster
// is saturated, shed load and retry (HTTP maps this to 503 +
// Retry-After).
var ErrBusy = errors.New("rms: serving queue full")

// ErrTenantBusy is returned when the calling tenant is at its in-flight
// request cap — the cluster may be idle, the tenant has spent its share
// (HTTP maps this to 429 + Retry-After).
var ErrTenantBusy = errors.New("rms: tenant at in-flight request cap")

// InputRangeError rejects an input element binary16 cannot represent
// (|x| ≥ 65520, or NaN). The machine's quantizer would flush it to zero and
// answer for an input the caller did not send (HTTP maps this to 400).
type InputRangeError struct {
	Step, Elem int
	Value      float64
}

func (e *InputRangeError) Error() string {
	return fmt.Sprintf("rms: input %d element %d is %g, outside binary16's finite range", e.Step, e.Elem, e.Value)
}

// InferOptions tunes the online data plane.
type InferOptions struct {
	// MaxBatch is the per-machine slot count: how many streams one
	// machine steps together.
	MaxBatch int
	// Machines is the per-lease machine pool size: how many cohorts of a
	// lease can step concurrently.
	Machines int
	// Tiles is the simulated tile-engine count per machine.
	Tiles int
	// Seed derives per-lease weights (Seed + lease id), standing in for a
	// real deployment's model upload.
	Seed int64
	// Preempt enables automatic preemption: a machine with no free slots
	// checkpoints batch-class streams while latency-class requests wait in
	// the fair queue, instead of making them wait for a natural
	// retirement. Explicit preemption (DataPlane.Preempt) works regardless
	// of this flag.
	Preempt bool
}

// DefaultInferOptions returns the serving defaults.
func DefaultInferOptions() InferOptions {
	return InferOptions{
		MaxBatch: 8,
		Machines: 2,
		Tiles:    2,
		Seed:     1,
	}
}

// InferResult is one request's answer plus batching observability: which
// slot served it, how long it queued, the co-resident cohort at its retire
// round (BatchSize), and the machine's execution-stat delta over its slot
// residency (BatchStats — shared with its co-riders, so TileCacheHits
// there is what weight-stationary batching saves).
type InferResult struct {
	LeaseID    int             `json:"lease_id"`
	Outputs    [][]float64     `json:"outputs"`
	BatchSize  int             `json:"batch_size"`
	Stream     int             `json:"stream"`
	QueueWait  time.Duration   `json:"queue_wait_ns"`
	BatchStats accel.ExecStats `json:"batch_stats"`
}

// shapeRows returns n rows of width w over one backing array, reusing rows
// and back and growing only what is too small.
func shapeRows(rows [][]float64, back []float64, n, w int) ([][]float64, []float64) {
	rows, back = grow(rows, n), grow(back, n*w)
	for t := range rows {
		rows[t] = back[t*w : (t+1)*w : (t+1)*w]
	}
	return rows, back
}

// grow returns s resliced to length n, or a fresh slice if s is too small
// (or nil, so an empty result is never nil, as in encoding/json).
func grow[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// inferRequest is one request from submit to answer. It is pooled: the
// submitter attaches res, shaped for its outputs; the engine writes res,
// or err, then sends on done (buffered 1, made with the pooled request)
// exactly once, and the caller frees it after reading them.
type inferRequest struct {
	inputs   [][]float64
	enqueued time.Time
	done     chan struct{}
	res      *InferResult
	err      error
	// tenant and weight drive the fair-share queue: requests are queued
	// per tenant and drained by deficit round-robin with this DRR quantum.
	// Anonymous requests share the "" tenant at weight 1.
	tenant string
	weight int
	// resume, when set, carries a preempted stream's checkpoint: admission
	// restores it and continues from the saved timestep instead of running
	// StreamInit.
	resume *resumeToken
	next   *inferRequest // the tenant FIFO's link while queued
}

var requestPool = sync.Pool{New: func() any { return &inferRequest{done: make(chan struct{}, 1)} }}

// newRequest takes a request from the pool, stamped as enqueued now, that
// answers into res.
func newRequest(inputs [][]float64, res *InferResult, tenantID string, weight int) *inferRequest {
	req := requestPool.Get().(*inferRequest)
	req.inputs, req.res, req.enqueued, req.tenant, req.weight = inputs, res, time.Now(), tenantID, weight
	return req
}

// wait blocks until the request is answered and returns its error.
func (r *inferRequest) wait() error {
	<-r.done
	return r.err
}

// free clears every reference the request holds and returns it to the pool.
func (r *inferRequest) free() {
	*r = inferRequest{done: r.done}
	requestPool.Put(r)
}

// DataPlane serves inferences against admitted leases: per-lease machine
// pools with resident (weight-stationary) tiles and persistent batch
// slots, fed by a fair-share queue (see contEngine).
//
// The submit path is de-contended: the engine table sits behind an
// RWMutex taken shared on the hot path, the tenant registry is an atomic
// pointer, and the per-tenant in-flight gate is striped by tenant-id hash
// so unrelated tenants never serialize on one lock.
type DataPlane struct {
	svc  *Service
	opts InferOptions

	mu      sync.RWMutex
	engines map[int]*engineSlot
	// released tombstones drained lease ids (lease ids are never reused),
	// so a Resize or lazy engine build racing a Release can never install
	// an engine for a lease whose placements are already freed.
	released map[int]bool
	// closed is set by Close/CloseWithin: a closed plane builds and
	// installs no engine again.
	closed bool

	// tenants, when set, turns on per-tenant in-flight caps and fair-share
	// weights for InferAs.
	tenants atomic.Pointer[tenant.Registry]
	// inflight counts each tenant's admitted-and-unanswered requests
	// across all leases (the MaxInFlight quota gate), striped by tenant-id
	// hash: a tenant always maps to one stripe, so its check-and-increment
	// stays atomic while different tenants proceed in parallel.
	inflight [inflightStripes]inflightStripe
}

const inflightStripes = 32

type inflightStripe struct {
	mu sync.Mutex
	n  map[string]int
}

// stripe maps a tenant id to its in-flight stripe (FNV-1a).
func (dp *DataPlane) stripe(tenantID string) *inflightStripe {
	h := uint32(2166136261)
	for i := 0; i < len(tenantID); i++ {
		h ^= uint32(tenantID[i])
		h *= 16777619
	}
	return &dp.inflight[h%inflightStripes]
}

// SetTenants installs the tenant registry: InferAs resolves fair-share
// weights and enforces MaxInFlight caps against it. A nil registry
// restores anonymous serving.
func (dp *DataPlane) SetTenants(reg *tenant.Registry) {
	dp.tenants.Store(reg)
}

// CheckInvariants audits the data plane's engine and tombstone tables
// against the live-lease set, which the caller has proved equal to the
// service's: every registered engine must belong to a live lease, and no
// live lease may carry a release tombstone. The deterministic simulation
// harness runs this after every event; any error is a consistency bug.
func (dp *DataPlane) CheckInvariants(live func(id int) bool) error {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	for id := range dp.engines {
		if !live(id) {
			return fmt.Errorf("rms: engine registered for non-live lease %d", id)
		}
	}
	for id := range dp.released {
		if live(id) {
			return fmt.Errorf("rms: release tombstone for live lease %d", id)
		}
	}
	return nil
}

// engineSlot is one lease's entry in the engine table. e is nil until the
// build has succeeded, so lock-free readers (currentEngine) need nothing
// else; err is the failed build's error, read only after once has run.
type engineSlot struct {
	once sync.Once
	e    atomic.Pointer[contEngine]
	err  error
}

// resolved waits out a lazy build that may still be in flight and returns
// the slot's engine: nil if the build failed or never started (in which
// case it never will), or if there is no slot.
func (s *engineSlot) resolved() *contEngine {
	if s == nil {
		return nil
	}
	s.once.Do(func() {})
	return s.e.Load()
}

// NewDataPlane builds a data plane over the admission service and
// registers its drain hook, so Service.Release (called directly or via
// HTTP) always drains the lease's engine before freeing placements.
func NewDataPlane(svc *Service, opts InferOptions) *DataPlane {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 1
	}
	if opts.Machines <= 0 {
		opts.Machines = 1
	}
	if opts.Tiles <= 0 {
		opts.Tiles = 1
	}
	dp := &DataPlane{
		svc: svc, opts: opts,
		engines:  map[int]*engineSlot{},
		released: map[int]bool{},
	}
	for i := range dp.inflight {
		dp.inflight[i].n = map[string]int{}
	}
	svc.SetDrainer(dp.drainEngine)
	return dp
}

// LoadStats is a lease's live serving load, the control plane's
// depth-selection signal.
type LoadStats struct {
	// QueueDepth is the number of requests waiting for a slot right now.
	QueueDepth int `json:"queue_depth"`
	// InFlight is the number of machines not parked right now: stepping a
	// cohort, or about to take from the queue.
	InFlight int `json:"in_flight"`
	// Pending is the number of requests admitted and not yet answered:
	// queued or resident in a slot.
	Pending int `json:"pending"`
	// Served and Batches are lifetime totals for the engine: requests
	// answered, and fresh admission cohorts.
	Served  int64 `json:"served"`
	Batches int64 `json:"batches"`
	// Machines is the engine's current pool size.
	Machines int `json:"machines"`
	// AvgQueueWait is an EWMA of request queue wait.
	AvgQueueWait time.Duration `json:"avg_queue_wait_ns"`
}

// Load reports a lease's serving load. ok is false when the lease has no
// engine yet (nothing inferred since deploy or resize) — callers should
// treat that as an idle lease.
func (dp *DataPlane) Load(leaseID int) (LoadStats, bool) {
	e := dp.currentEngine(leaseID)
	if e == nil {
		return LoadStats{}, false
	}
	return e.load(), true
}

// Resize swaps the lease's engine for one with the given machine-pool
// size (the data-plane side of a depth migration: a deeper deployment
// steps more cohorts concurrently). The swap is lossless and
// make-before-break — new requests go to the new engine immediately, and
// the old engine's queued and resident streams move over: residents are
// checkpointed and resume mid-sequence on the new pool instead of being
// re-run.
func (dp *DataPlane) Resize(leaseID, machines int) error {
	lease, ok := dp.svc.Lease(leaseID)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownLease, leaseID)
	}
	if machines <= 0 {
		machines = 1
	}
	opts := dp.opts
	opts.Machines = machines
	// Reuse the immutable kernel (its image is copy-on-write) but not the old
	// machines' tiles: ShareTiles needs them idle, and they are still running.
	var kern *kernels.Kernel
	if old := dp.currentEngine(leaseID); old != nil {
		kern = old.kern
	}
	e, err := newContEngine(lease, kern, opts)
	if err != nil {
		return err
	}
	slot := &engineSlot{}
	slot.e.Store(e)
	slot.resolved() // e is pre-built: engine() must not build another
	dp.mu.Lock()
	if dp.closed || dp.released[leaseID] {
		// A concurrent Close or Release ran after the lookup above:
		// installing now would leak an engine.
		closed := dp.closed
		dp.mu.Unlock()
		e.close()
		if closed {
			return ErrLeaseClosing
		}
		return fmt.Errorf("%w: %d", ErrUnknownLease, leaseID)
	}
	old := dp.engines[leaseID]
	dp.engines[leaseID] = slot
	dp.mu.Unlock()
	if oe := old.resolved(); oe != nil {
		oe.transplantTo(e)
	}
	return nil
}

// Preempt requests that up to n of the lease's resident streams be
// checkpointed back into its fair queue (n <= 0 means one machine's full
// slot count). It posts n as demand, which machines with a live cohort
// consume at their next step rounds (mlv_preempt_evictions counts what
// they evict), and returns the count it posted. A lease with no engine
// yet has nothing resident and reports 0.
func (dp *DataPlane) Preempt(leaseID, n int) (int, error) {
	if _, ok := dp.svc.Lease(leaseID); !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownLease, leaseID)
	}
	if n <= 0 {
		n = dp.opts.MaxBatch
	}
	e := dp.currentEngine(leaseID)
	if e == nil {
		return 0, nil
	}
	metrics.PreemptRequests.Add(1)
	e.preemptReq.Add(int64(n))
	return n, nil
}

// InferAs runs the lease's layer on inputs (one vector of the layer's
// hidden size per timestep, up to the layer's unrolled length — shorter
// sequences retire early) on behalf of
// tenantID and returns the per-timestep hidden states. The request rides
// a batch with whatever else is in flight for the lease, scheduled by
// weighted fair share across tenants; a tenant at its MaxInFlight cap is
// shed with ErrTenantBusy. An empty tenantID is anonymous: weight 1, no
// cap.
func (dp *DataPlane) InferAs(tenantID string, leaseID int, inputs [][]float64) (*InferResult, error) {
	return dp.inferInto(tenantID, leaseID, inputs, nil)
}

// inferInto is InferAs answering into sc's result, which retire fills in
// place, or into a fresh one if sc is nil. The outputs are shaped only
// once the inputs have passed every check.
func (dp *DataPlane) inferInto(tenantID string, leaseID int, inputs [][]float64, sc *inferScratch) (*InferResult, error) {
	weight := 0
	if tenantID != "" {
		st := dp.stripe(tenantID)
		st.mu.Lock()
		if reg := dp.tenants.Load(); reg != nil {
			t, ok := reg.Lookup(tenantID)
			if !ok {
				st.mu.Unlock()
				metrics.TenantRequests.Add(unknownTenant, 1)
				metrics.TenantRejections.Add(unknownTenant, 1)
				return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, tenantID)
			}
			metrics.TenantRequests.Add(tenantID, 1)
			if limit := t.Quotas.MaxInFlight; limit > 0 && st.n[tenantID] >= limit {
				st.mu.Unlock()
				metrics.TenantRejections.Add(tenantID, 1)
				return nil, fmt.Errorf("%w: %s", ErrTenantBusy, tenantID)
			}
			weight = t.EffectiveWeight()
		} else {
			metrics.TenantRequests.Add(tenantID, 1)
		}
		st.n[tenantID]++
		st.mu.Unlock()
		defer func() {
			st.mu.Lock()
			st.n[tenantID]--
			if st.n[tenantID] <= 0 {
				delete(st.n, tenantID)
			}
			st.mu.Unlock()
		}()
	}
	// A built engine implies a live lease (Release drains the engine before
	// it deletes the lease) and holds the layer, so the steady state takes
	// no service lock. Without one, inputs are checked before a build.
	var spec kernels.LayerSpec
	lease, e := (*Lease)(nil), dp.currentEngine(leaseID)
	if e != nil {
		spec = e.kern.Spec
	} else if l, ok := dp.svc.Lease(leaseID); ok {
		lease, spec = l, l.Spec
	} else {
		return nil, fmt.Errorf("%w: %d", ErrUnknownLease, leaseID)
	}
	if len(inputs) == 0 || len(inputs) > spec.TimeSteps {
		return nil, fmt.Errorf("rms: got %d input vectors, layer takes 1..%d timesteps", len(inputs), spec.TimeSteps)
	}
	for t, x := range inputs {
		if len(x) != spec.Hidden {
			return nil, fmt.Errorf("rms: input %d has %d elements, hidden size is %d", t, len(x), spec.Hidden)
		}
		for i, v := range x {
			if !fp16.FromFloat64(v).IsFinite() {
				return nil, &InputRangeError{Step: t, Elem: i, Value: v}
			}
		}
	}
	if e == nil {
		var err error
		if e, err = dp.engine(lease); err != nil {
			return nil, err
		}
	}
	var res *InferResult
	if sc == nil {
		res = new(InferResult)
		res.Outputs, _ = shapeRows(nil, nil, len(inputs), spec.Hidden)
	} else {
		res = &sc.res
		res.Outputs, sc.out = shapeRows(res.Outputs, sc.out, len(inputs), spec.Hidden)
	}
	req := newRequest(inputs, res, tenantID, weight)
	for {
		err := e.submit(req)
		if err == nil {
			break
		}
		// A Resize may have swapped the engine between the lookup above and
		// the submit, closing the one we hold: the request belongs on its
		// replacement, not back with the caller.
		next := dp.currentEngine(leaseID)
		if !errors.Is(err, ErrLeaseClosing) || next == nil || next == e {
			req.free()
			return nil, err
		}
		e = next
	}
	err := req.wait()
	req.free()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// currentEngine returns the lease's engine if one is installed and built,
// without building one (a released or closed plane must stay that way).
func (dp *DataPlane) currentEngine(leaseID int) *contEngine {
	dp.mu.RLock()
	defer dp.mu.RUnlock()
	if slot := dp.engines[leaseID]; slot != nil {
		return slot.e.Load()
	}
	return nil
}

// engine returns the lease's serving engine, building it on first use.
// The steady-state lookup takes the read lock only.
func (dp *DataPlane) engine(lease *Lease) (*contEngine, error) {
	dp.mu.RLock()
	closing := dp.closed || dp.released[lease.ID]
	slot, ok := dp.engines[lease.ID]
	dp.mu.RUnlock()
	if closing {
		return nil, ErrLeaseClosing
	}
	if !ok {
		dp.mu.Lock()
		if dp.closed || dp.released[lease.ID] {
			dp.mu.Unlock()
			return nil, ErrLeaseClosing
		}
		slot, ok = dp.engines[lease.ID]
		if !ok {
			slot = &engineSlot{}
			dp.engines[lease.ID] = slot
		}
		dp.mu.Unlock()
	}
	slot.once.Do(func() {
		var e *contEngine
		if e, slot.err = newContEngine(lease, nil, dp.opts); slot.err == nil {
			slot.e.Store(e)
		}
	})
	return slot.e.Load(), slot.err
}

// drainEngine retires the lease's engine: admission stops, queued
// requests are served, resident streams finish. Idempotent.
func (dp *DataPlane) drainEngine(leaseID int) {
	dp.mu.Lock()
	dp.released[leaseID] = true
	slot := dp.engines[leaseID]
	delete(dp.engines, leaseID)
	dp.mu.Unlock()
	if e := slot.resolved(); e != nil {
		e.close()
	}
}

// Close drains and stops every engine (leases stay admitted; pair with
// Service.Release for a full teardown). A closed plane stays closed:
// InferAs and Resize answer ErrLeaseClosing.
func (dp *DataPlane) Close() { dp.closeBy(time.Time{}) }

// CloseWithin drains and stops every engine like Close, but bounded by
// one shared deadline: engines that cannot drain in time abandon their
// still-running streams and answer their callers ErrLeaseClosing. Returns
// how many in-flight streams were abandoned, for the server's shutdown
// log.
func (dp *DataPlane) CloseWithin(d time.Duration) int { return dp.closeBy(time.Now().Add(d)) }

func (dp *DataPlane) closeBy(deadline time.Time) int {
	dp.mu.Lock()
	dp.closed = true
	slots := make([]*engineSlot, 0, len(dp.engines))
	for id, s := range dp.engines {
		slots = append(slots, s)
		delete(dp.engines, id)
	}
	dp.mu.Unlock()
	abandoned := 0
	for _, s := range slots {
		if e := s.resolved(); e != nil {
			abandoned += e.closeBy(deadline)
		}
	}
	return abandoned
}
