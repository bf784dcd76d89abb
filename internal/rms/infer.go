package rms

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/parpool"
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
	// Machines is the number of machines per piece: a lease at depth d
	// runs d × Machines machines, so as many cohorts step concurrently.
	Machines int
	// Tiles is the simulated tile-engine count per machine.
	Tiles int
	// Seed derives a model's weights (Seed + the id of the lease a deploy
	// replicates, or its own), standing in for a real model upload.
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
// submitter shapes res (its own result, or one it attaches) for its
// outputs; the engine writes res, or err, then sends on done (buffered 1,
// made with the pooled request) exactly once, and the caller frees it
// after reading them.
type inferRequest struct {
	inputs   [][]float64
	enqueued time.Time
	done     chan struct{}
	res      *InferResult
	own      InferResult
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
// answers into its own result.
func newRequest(inputs [][]float64, tenantID string, weight int) *inferRequest {
	req := requestPool.Get().(*inferRequest)
	req.inputs, req.res, req.enqueued, req.tenant, req.weight = inputs, &req.own, time.Now(), tenantID, weight
	return req
}

// free clears every reference the request holds and returns it to the pool.
func (r *inferRequest) free() {
	*r = inferRequest{done: r.done}
	requestPool.Put(r)
}

// DataPlane serves inferences against admitted leases: per-lease machine
// pools with resident (weight-stationary) tiles and persistent batch
// slots, fed by a fair-share queue (see contEngine). Each engine lives on
// its lease's record in the service, so a service has one data plane.
//
// The submit path is de-contended: the engine is read under the service
// lock taken shared, the tenant registry is an atomic pointer, and the
// per-tenant in-flight gate is striped by tenant-id hash so unrelated
// tenants never serialize on one lock.
type DataPlane struct {
	svc  *Service
	opts InferOptions

	// closed is set by Close/CloseWithin, under svc.mu: a closed plane
	// installs no engine again.
	closed bool
	// builds holds one token per Prebuild build in flight.
	builds chan struct{}

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
	n  map[string]int // made on the stripe's first admission
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

// NewDataPlane builds a data plane over the admission service.
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
	return &DataPlane{svc: svc, opts: opts, builds: make(chan struct{}, parpool.Workers(0))}
}

// LoadStats is a lease's live serving load, the control plane's
// depth-selection signal.
type LoadStats struct {
	// QueueDepth is the number of requests waiting for a slot right now.
	QueueDepth int `json:"queue_depth"`
	// Pending is the number of requests admitted and not yet answered:
	// queued or resident in a slot, so Pending ≥ QueueDepth. A lease with
	// none pending is idle.
	Pending int `json:"pending"`
	// Served is the engine's lifetime count of requests answered.
	Served int64 `json:"served"`
	// Machines is the engine's current pool size.
	Machines int `json:"machines"`
}

// Load reports a lease's serving load. ok is false when the lease has no
// engine yet (nothing inferred, prebuilt or resized since deploy) —
// callers should treat that as an idle lease.
func (dp *DataPlane) Load(leaseID int) (LoadStats, bool) {
	e := dp.currentEngine(leaseID)
	if e == nil {
		return LoadStats{}, false
	}
	return e.load(), true
}

// Resize swaps the lease's engine for one whose pool is sized for the
// lease's current depth (the data-plane side of a depth migration: a
// deeper deployment steps more cohorts concurrently). The swap is lossless
// and make-before-break — new requests go to the new engine immediately,
// and the old engine's queued and resident streams move over: residents
// are checkpointed and resume mid-sequence on the new pool instead of
// being re-run, on the lease's weight set (it quantizes nothing). A lease
// being released, or a closed plane, is ErrLeaseClosing.
func (dp *DataPlane) Resize(leaseID int) error {
	rec, old := dp.record(leaseID)
	if rec == nil {
		return fmt.Errorf("%w: %d", ErrUnknownLease, leaseID)
	}
	e, err := dp.newEngine(rec)
	if err != nil {
		return err
	}
	dp.svc.mu.Lock()
	if dp.closed || rec.released {
		// A Close or Release landed since: the engine stays uninstalled.
		dp.svc.mu.Unlock()
		return ErrLeaseClosing
	}
	old, rec.engine = rec.engine, e
	dp.svc.mu.Unlock()
	if old != nil {
		// The callers waiting on what moved take the baton to e.
		old.transplantTo(e)
		post(rec.baton)
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
	rec, e := dp.record(leaseID)
	if rec == nil {
		return 0, fmt.Errorf("%w: %d", ErrUnknownLease, leaseID)
	}
	if n <= 0 {
		n = dp.opts.MaxBatch
	}
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
// cap. It holds inputs only until it returns.
func (dp *DataPlane) InferAs(tenantID string, leaseID int, inputs [][]float64) (InferResult, error) {
	return dp.inferInto(tenantID, leaseID, inputs, nil)
}

// inferInto is InferAs answering into sc's result, which retire fills in
// place, or into the pooled request's, with fresh outputs, if sc is nil;
// either is copied out. The outputs are shaped only once the inputs have
// passed every check.
func (dp *DataPlane) inferInto(tenantID string, leaseID int, inputs [][]float64, sc *inferScratch) (InferResult, error) {
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
				return InferResult{}, fmt.Errorf("%w: %s", ErrUnknownTenant, tenantID)
			}
			metrics.TenantRequests.Add(tenantID, 1)
			if limit := t.Quotas.MaxInFlight; limit > 0 && st.n[tenantID] >= limit {
				st.mu.Unlock()
				metrics.TenantRejections.Add(tenantID, 1)
				return InferResult{}, fmt.Errorf("%w: %s", ErrTenantBusy, tenantID)
			}
			weight = t.EffectiveWeight()
		} else {
			metrics.TenantRequests.Add(tenantID, 1)
		}
		if st.n == nil {
			st.n = map[string]int{}
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
	// The steady state is one shared lookup of the record and its engine.
	// Without an engine, inputs are checked before a build.
	rec, e := dp.record(leaseID)
	if rec == nil {
		return InferResult{}, fmt.Errorf("%w: %d", ErrUnknownLease, leaseID)
	}
	spec := rec.Spec
	// A scanned body may hold more vectors than it stored (inferScratch).
	n, width := len(inputs), 0
	if sc != nil && sc.n > n {
		n, width = sc.n, sc.width
	}
	if n == 0 || n > spec.TimeSteps {
		return InferResult{}, fmt.Errorf("rms: got %d input vectors, layer takes 1..%d timesteps", n, spec.TimeSteps)
	}
	for t, x := range inputs {
		if len(x) != spec.Hidden {
			return InferResult{}, fmt.Errorf("rms: input %d has %d elements, hidden size is %d", t, len(x), spec.Hidden)
		}
		for i, v := range x {
			if !fp16.FromFloat64(v).IsFinite() {
				return InferResult{}, &InputRangeError{Step: t, Elem: i, Value: v}
			}
		}
	}
	if n > len(inputs) {
		return InferResult{}, fmt.Errorf("rms: input %d has %d elements, hidden size is %d", len(inputs), width, spec.Hidden)
	}
	if e == nil {
		var err error
		if e, err = dp.engine(rec); err != nil {
			return InferResult{}, err
		}
	}
	req := newRequest(inputs, tenantID, weight)
	if sc == nil {
		req.own.Outputs, _ = shapeRows(nil, nil, len(inputs), spec.Hidden)
	} else {
		req.res = &sc.res
		sc.res.Outputs, sc.out = shapeRows(sc.res.Outputs, sc.out, len(inputs), spec.Hidden)
	}
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
			return InferResult{}, err
		}
		e = next
	}
	err := dp.await(rec, e, req)
	out := *req.res
	req.free()
	if err != nil {
		return InferResult{}, err
	}
	return out, nil
}

// await drives e for req's caller (see contEngine.drive) and returns req's
// error once it is answered. While others hold the machines it waits for
// the answer or for the lease's baton, which a driver leaving work behind
// posts, and then drives whichever engine the record holds: after a Resize
// that is the one req moved to, and none once Release or Close took the
// engine, whose stopper then drives.
func (dp *DataPlane) await(rec *leaseRecord, e *contEngine, req *inferRequest) error {
	for {
		if e != nil {
			e.drive(req, rec.baton)
		}
		select {
		case <-req.done:
			return req.err
		case <-rec.baton:
			e = dp.currentEngine(rec.ID)
		}
	}
}

// record returns the lease's record and its engine, or nil, nil if the
// lease is unknown, under the service's shared lock.
func (dp *DataPlane) record(leaseID int) (*leaseRecord, *contEngine) {
	dp.svc.mu.RLock()
	defer dp.svc.mu.RUnlock()
	if rec := dp.svc.leases[leaseID]; rec != nil {
		return rec, rec.engine
	}
	return nil, nil
}

// currentEngine returns the lease's engine if one is installed, without
// building one (a released or closed plane must stay that way).
func (dp *DataPlane) currentEngine(leaseID int) *contEngine {
	_, e := dp.record(leaseID)
	return e
}

// newEngine builds rec's engine, its pool sized for rec's depth, over rec's
// weight set (tabled if new); a released record or closed plane gets none.
func (dp *DataPlane) newEngine(rec *leaseRecord) (*contEngine, error) {
	opts := dp.opts
	dp.svc.mu.Lock()
	opts.Machines *= rec.Depth
	w := rec.weights
	if w == nil && !rec.released && !dp.closed {
		key := weightKey{rec.Spec, dp.opts.Tiles, dp.opts.Seed + int64(rec.root)}
		if w = dp.svc.weights[key]; w == nil {
			w = &weightSet{key: key}
			dp.svc.weights[key] = w
		}
		w.leases++
		rec.weights = w
	}
	dp.svc.mu.Unlock()
	if w == nil {
		return nil, ErrLeaseClosing
	}
	if err := w.load(); err != nil {
		return nil, fmt.Errorf("rms: building weights for lease %d: %w", rec.ID, err)
	}
	return newContEngine(&rec.Lease, w, opts)
}

// engine returns rec's serving engine, building it on first use. The one
// build installs its engine only on a live record of an open plane and
// never over one a Resize installed first. So a build that loses to
// Release or Close answers ErrLeaseClosing, and no caller ever gets a nil
// engine without an error.
func (dp *DataPlane) engine(rec *leaseRecord) (*contEngine, error) {
	s := dp.svc
	rec.build.Do(func() {
		e, err := dp.newEngine(rec)
		if err != nil {
			rec.buildErr = err
			return
		}
		s.mu.Lock()
		if !rec.released && !dp.closed && rec.engine == nil {
			rec.engine = e
		}
		s.mu.Unlock()
	})
	e := dp.currentEngine(rec.ID)
	switch {
	case e != nil:
		return e, nil
	case rec.buildErr != nil:
		return nil, rec.buildErr
	}
	return nil, ErrLeaseClosing
}

// Prebuild runs the lease's one engine build on a background goroutine,
// at most parpool.Workers(0) at once, so its first InferAs finds the
// engine built or waits on it; wg.Wait joins every build wg counted. An
// unknown lease, or one already serving, starts nothing.
func (dp *DataPlane) Prebuild(leaseID int, wg *sync.WaitGroup) {
	rec, e := dp.record(leaseID)
	if rec == nil || e != nil {
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		dp.builds <- struct{}{}
		dp.engine(rec) // InferAs reports a failed build
		<-dp.builds
	}()
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
	dp.svc.mu.Lock()
	dp.closed = true
	clear(dp.svc.weights)
	var engines []*contEngine
	for _, rec := range dp.svc.leases {
		if rec.engine != nil {
			engines = append(engines, rec.engine)
			rec.engine = nil
		}
	}
	dp.svc.mu.Unlock()
	abandoned := 0
	for _, e := range engines {
		abandoned += e.closeBy(deadline)
	}
	return abandoned
}
