package rms

import (
	"errors"
	"expvar"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/resource"
)

// preemptPlane builds a plane over a longer-sequence lease than
// testPlane's, so streams stay resident across many step rounds and
// preemption reliably catches them mid-flight.
func preemptPlane(t *testing.T, opts InferOptions) (*Service, *DataPlane, *Lease) {
	return stepsPlane(t, opts, 16)
}

func stepsPlane(t *testing.T, opts InferOptions, steps int) (*Service, *DataPlane, *Lease) {
	t.Helper()
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	lease, err := svc.Deploy(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: steps})
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDataPlane(svc, opts)
	t.Cleanup(dp.Close)
	return svc, dp, lease
}

// backlog is a lease's engine loaded to its queue cap, for tests that act
// on a state with streams resident and more queued. Only the test drives
// the engine, so the state holds until it acts. The sequences are long (a
// full queue is tens of milliseconds of rounds) so a halt that lands from
// a timer's goroutine, as CloseWithin(0)'s does, finds streams still
// resident, and their lengths differ (45..48 steps) so the slots never all
// retire in one round.
type backlog struct {
	e    *contEngine
	reqs []*inferRequest
	refs [][][]float64 // per request, the solo run's outputs
}

const backlogSteps = 48

// loadBacklog submits all the queue holds, less spare, straight to the
// lease's engine and fills its machines by stepping each one round.
func loadBacklog(t *testing.T, dp *DataPlane, lease *Lease, spare int, tenant string, weight int) *backlog {
	t.Helper()
	e, err := dp.engine(mustRecord(t, dp, lease.ID))
	if err != nil {
		t.Fatal(err)
	}
	b := submitBacklog(t, e, lease, e.queueCap-spare, tenant, weight)
	for _, cm := range e.machines {
		step(e, cm)
	}
	return b
}

// submitBacklog submits n requests straight to e under the given
// fair-queue tenant, cycling through four lengths.
func submitBacklog(t *testing.T, e *contEngine, lease *Lease, n int, tenant string, weight int) *backlog {
	t.Helper()
	const patterns = 4
	var ins, refs [patterns][][]float64
	for p := range ins {
		ins[p] = testInputs(lease.Spec, int64(900+p))[:lease.Spec.TimeSteps-p]
		refs[p] = referenceOutputs(t, lease, e.opts, ins[p])[:len(ins[p])]
	}
	b := &backlog{e: e}
	for i := 0; i < n; i++ {
		req := shapedRequest(ins[i%patterns], tenant, weight)
		if err := e.submit(req); err != nil {
			t.Fatal(err)
		}
		b.reqs = append(b.reqs, req)
		b.refs = append(b.refs, refs[i%patterns])
	}
	return b
}

// join receives every response. A request answered with an error must
// carry one the test allows (errors.Is); the rest must match their solo
// run bit for bit. Returns how many were answered with an error.
func (b *backlog) join(t *testing.T, allowed ...error) int {
	t.Helper()
	failed := 0
	for i, req := range b.reqs {
		err := reply(req)
		if err != nil {
			failed++
			ok := false
			for _, a := range allowed {
				ok = ok || errors.Is(err, a)
			}
			if !ok {
				t.Errorf("request %d: %v", i, err)
			}
		} else if !reflect.DeepEqual(req.res.Outputs, b.refs[i]) {
			t.Errorf("request %d: outputs differ from solo run", i)
		}
	}
	return failed
}

// snapDelta is how far a counter has moved since base was read.
func snapDelta(base metrics.Values, v *expvar.Int) int64 {
	return v.Value() - base.Int(v)
}

// TestPreemptGoldenTwin is the data-plane golden preempted-twin: streams
// evicted mid-sequence by explicit preemption and restored into whatever
// slot frees up next must return outputs bit-identical to a
// never-preempted solo run, and every checkpoint captured must be
// matched by a restore. A restored stream's report carries its earlier
// residencies' work, so it is never less than the solo run's. The test
// steps the engine and posts one slot of demand before every round, so
// the eviction count is exact.
func TestPreemptGoldenTwin(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 2
	_, _, lease := preemptPlane(t, opts)
	e := steppedEngine(t, lease, opts)

	solo := shapedRequest(testInputs(lease.Spec, 299), "", 0)
	if err := e.submit(solo); err != nil {
		t.Fatal(err)
	}
	stepUntilIdle(t, e)
	if err := reply(solo); err != nil {
		t.Fatal(err)
	}

	base := metrics.Snapshot()
	const N = 6
	inputs := make([][][]float64, N)
	reqs := make([]*inferRequest, N)
	for i := range reqs {
		inputs[i] = testInputs(lease.Spec, int64(300+i))
		reqs[i] = shapedRequest(inputs[i], "", 0)
		if err := e.submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Hammer explicit preemption while the backlog drains. The progress
	// guard (one step minimum per residency) bounds the churn, so the
	// backlog still finishes.
	for rounds := 0; e.pending.Load() > 0; rounds++ {
		if rounds > 10_000 {
			t.Fatalf("%d requests still pending after %d rounds", e.pending.Load(), rounds)
		}
		e.preemptReq.Add(1)
		step(e, e.machines[0])
	}

	for i, req := range reqs {
		if err := reply(req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		ref := referenceOutputs(t, lease, opts, inputs[i])
		if !reflect.DeepEqual(req.res.Outputs, ref) {
			t.Errorf("request %d: restored stream differs from never-preempted twin", i)
		}
		if got, want := req.res.BatchStats.MACs, solo.res.BatchStats.MACs; got < want {
			t.Errorf("request %d reports %d MACs, under the never-preempted run's %d", i, got, want)
		}
	}
	if got := snapDelta(base, metrics.PreemptEvictions); got != 48 {
		t.Errorf("%d preempt evictions, want 48", got)
	}
	// Snapshot conservation: by the time every request is answered, each
	// capture has been consumed by exactly one restore.
	if c, r := snapDelta(base, metrics.SnapshotCaptures), snapDelta(base, metrics.SnapshotRestores); c != r {
		t.Errorf("captures %d != restores %d", c, r)
	}
	if ev, re := snapDelta(base, metrics.PreemptEvictions), snapDelta(base, metrics.PreemptRestores); ev != re {
		t.Errorf("preempt evictions %d != preempt restores %d", ev, re)
	}
}

// TestRestoredStreamKeepsItsQueueWait pins the queue wait a preempted
// stream reports: the wait of its earlier residencies carries into its
// next token and into its final report, across every eviction. The test
// evicts one stream twice and plants an hour of earlier wait in its
// first token, so a wait that is dropped or subtracted shows.
func TestRestoredStreamKeepsItsQueueWait(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	_, _, lease := preemptPlane(t, opts)
	e := steppedEngine(t, lease, opts)
	cm := e.machines[0]
	req := shapedRequest(testInputs(lease.Spec, 400), "", 0)
	if err := e.submit(req); err != nil {
		t.Fatal(err)
	}
	// evict admits req (or restores it) with one round, then checkpoints
	// it back into the queue and returns its resume token.
	evict := func() *resumeToken {
		t.Helper()
		step(e, cm)
		cm.mu.Lock()
		defer cm.mu.Unlock()
		for s := range cm.slots {
			if cm.slots[s].req == req {
				e.evictOne(cm, s, &cm.slots[s], true)
				return req.resume
			}
		}
		t.Fatal("request not resident after a round")
		return nil
	}
	evict().wait += time.Hour
	if w := evict().wait; w < time.Hour {
		t.Errorf("second eviction carries %v of queue wait, under the first's hour", w)
	}
	stepUntilIdle(t, e)
	if err := reply(req); err != nil {
		t.Fatal(err)
	}
	if w := req.res.QueueWait; w < time.Hour {
		t.Errorf("restored stream reports %v of queue wait, under its earlier hour", w)
	}
}

// TestResizeTransplantsResidentStreams pins the make-before-break data
// path of a depth migration: a Resize mid-flight checkpoints the old
// pool's resident streams and resumes them on the new pool — different
// machine count, same bit-exact outputs, nothing re-run from scratch and
// nothing answered with an error. The old engine is left with nothing:
// no pending request, an empty queue, every slot free, and no admission.
// The test drives the new engine, as its waiting callers would.
func TestResizeTransplantsResidentStreams(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 4
	_, dp, lease := stepsPlane(t, opts, backlogSteps)

	base := metrics.Snapshot()
	// Nothing steps the old pool after loadBacklog: the transplant finds
	// its slots full.
	b := loadBacklog(t, dp, lease, 0, "", 0)
	deepen(t, dp, lease.ID)
	if err := dp.Resize(lease.ID); err != nil {
		t.Fatal(err)
	}
	stepUntilIdle(t, dp.currentEngine(lease.ID))
	b.join(t)

	if st, ok := dp.Load(lease.ID); !ok || st.Machines != 2 {
		t.Errorf("post-resize load = %+v, ok=%v, want 2 machines", st, ok)
	}
	if moved := snapDelta(base, metrics.SnapshotCaptures); moved == 0 {
		t.Error("resize moved no checkpoints — transplant did not run")
	}
	if c, r := snapDelta(base, metrics.SnapshotCaptures), snapDelta(base, metrics.SnapshotRestores); c != r {
		t.Errorf("captures %d != restores %d", c, r)
	}
	if st := b.e.load(); st.Pending != 0 || st.QueueDepth != 0 {
		t.Errorf("old engine holds %d pending, %d queued after the transplant", st.Pending, st.QueueDepth)
	}
	for i, cm := range b.e.machines {
		for s, sl := range cm.slots {
			if sl != (contSlot{}) {
				t.Errorf("old engine machine %d slot %d still occupied after the transplant", i, s)
			}
		}
	}
	req := shapedRequest(testInputs(lease.Spec, 1), "", 0)
	if err := b.e.submit(req); !errors.Is(err, ErrLeaseClosing) {
		t.Errorf("submit to the transplanted engine: err = %v, want ErrLeaseClosing", err)
	}
}

// TestInferRacingResizeLandsOnNewEngine: a caller that looked the engine up
// just before a Resize swapped it used to be answered ErrLeaseClosing when
// its submit lost the race to the old engine's close. The request must land
// on the replacement instead — the lease is resizing, not closing.
func TestInferRacingResizeLandsOnNewEngine(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 2
	_, dp, lease := preemptPlane(t, opts)
	in := testInputs(lease.Spec, 700)[:2]
	want := referenceOutputs(t, lease, opts, in)[:2]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := dp.InferAs("", lease.ID, in)
				if errors.Is(err, ErrBusy) {
					continue
				}
				if err != nil {
					t.Errorf("Infer across a Resize: %v", err)
					return
				}
				if !reflect.DeepEqual(res.Outputs, want) {
					t.Error("output differs across a Resize")
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if err := dp.Resize(lease.ID); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAutoPreemptFavorsLatencyClass pins the scheduling tentpole: with
// Preempt on, a full machine checkpoints a batch-class stream the moment
// a latency-class request waits in the fair queue, instead of letting it
// queue behind full-length sequences — and the displaced streams still
// finish bit-identical. The test steps the engine, so the round that
// preempts is the first one the latency-class request waits through.
func TestAutoPreemptFavorsLatencyClass(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 2
	opts.Preempt = true
	_, _, lease := stepsPlane(t, opts, backlogSteps)
	e := steppedEngine(t, lease, opts)
	cm := e.machines[0]

	base := metrics.Snapshot()
	b := submitBacklog(t, e, lease, 4, "bulk", 1)
	step(e, cm)
	if cm.occupied != opts.MaxBatch {
		t.Fatalf("%d of %d slots occupied after the first round", cm.occupied, opts.MaxBatch)
	}
	// The machine is full of batch-class streams with 44 or more steps to
	// go: the latency-class arrival must preempt rather than wait for a
	// retirement.
	in := testInputs(lease.Spec, 799)
	rt := shapedRequest(in, "rt", 8)
	if err := e.submit(rt); err != nil {
		t.Fatal(err)
	}
	step(e, cm)
	if got := snapDelta(base, metrics.PreemptEvictions); got != 1 {
		t.Errorf("%d preempt evictions in the round after a latency-class arrival, want 1", got)
	}
	stepUntilIdle(t, e)
	if err := reply(rt); err != nil {
		t.Fatalf("latency-class request: %v", err)
	} else if !reflect.DeepEqual(rt.res.Outputs, referenceOutputs(t, lease, opts, in)) {
		t.Error("latency-class request: outputs differ from solo run")
	}
	b.join(t)

	if snapDelta(base, metrics.PreemptEvictions) == 0 {
		t.Error("latency-class arrivals triggered no preemption on a full machine")
	}
	if c, r := snapDelta(base, metrics.SnapshotCaptures), snapDelta(base, metrics.SnapshotRestores); c != r {
		t.Errorf("captures %d != restores %d", c, r)
	}
	if ev, rs := snapDelta(base, metrics.PreemptEvictions), snapDelta(base, metrics.PreemptRestores); ev != rs {
		t.Errorf("evictions %d != restores %d", ev, rs)
	}
}

// TestCloseWithinCheckpointsAtDeadline pins the deadline-bounded drain:
// streams still resident when the deadline passes are abandoned (counted
// for the shutdown log, not checkpointed) and their callers answered
// ErrLeaseClosing, and the slot gauge still drains to its baseline. Two
// machines, so the abandoned streams are collected from more than one.
func TestCloseWithinCheckpointsAtDeadline(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 2
	opts.MaxBatch = 2
	_, dp, lease := stepsPlane(t, opts, backlogSteps)

	slotsBase := metrics.SlotsActive.Value()
	// The engine provably holds a deep backlog, two streams of it
	// resident, when the already-expired deadline lands.
	b := loadBacklog(t, dp, lease, 0, "", 0)
	base := metrics.Snapshot()
	n := dp.CloseWithin(0)
	if n == 0 {
		t.Error("deadline drain abandoned no streams")
	}
	if shed := b.join(t, ErrLeaseClosing); shed == 0 {
		t.Error("deadline drain shed no requests")
	}
	if got := snapDelta(base, metrics.DrainAbandoned); got != int64(n) {
		t.Errorf("drain abandoned counter delta = %d, CloseWithin reported %d", got, n)
	}
	if got := snapDelta(base, metrics.SnapshotBytes); got != 0 {
		t.Errorf("deadline drain took %d bytes of checkpoints it throws away", got)
	}
	if got := metrics.SlotsActive.Value(); got != slotsBase {
		t.Errorf("slot gauge residue after deadline drain: %d", got-slotsBase)
	}
}

// TestCloseWithinGenerousDeadlineIsClose pins the equivalence close()
// relies on (close is closeBy with no deadline): a deadline the
// backlog finishes well inside checkpoints nothing and every request is
// answered with its solo run. At four machines the stopper drains each
// machine in turn, and work a later machine evicts can only land on one it
// has not taken yet.
func TestCloseWithinGenerousDeadlineIsClose(t *testing.T) {
	for _, machines := range []int{1, 4} {
		t.Run(fmt.Sprintf("machines=%d", machines), func(t *testing.T) {
			opts := DefaultInferOptions()
			opts.Machines = machines
			opts.MaxBatch = 2
			_, dp, lease := preemptPlane(t, opts)

			slotsBase := metrics.SlotsActive.Value()
			b := loadBacklog(t, dp, lease, 0, "", 0)
			if n := dp.CloseWithin(time.Minute); n != 0 {
				t.Errorf("drain inside the deadline checkpointed %d streams", n)
			}
			if failed := b.join(t); failed != 0 {
				t.Errorf("%d requests answered with an error", failed)
			}
			if st := b.e.load(); st.Pending != 0 || st.Served != int64(len(b.reqs)) {
				t.Errorf("after the drain: pending %d, served %d of %d", st.Pending, st.Served, len(b.reqs))
			}
			if got := metrics.SlotsActive.Value(); got != slotsBase {
				t.Errorf("slot gauge residue after the drain: %d", got-slotsBase)
			}
		})
	}
}

// TestAdmitFailureSettlesBeforeAnswering reaches admit's failure arm,
// which InferAs's width check normally shields: a directly submitted
// request whose input is too narrow is answered with SetInputStream's
// error, and the accounting — pending, the slot gauge — is already back at
// rest when the response arrives.
func TestAdmitFailureSettlesBeforeAnswering(t *testing.T) {
	_, dp, lease := testPlane(t, DefaultInferOptions())
	e, err := dp.engine(mustRecord(t, dp, lease.ID))
	if err != nil {
		t.Fatal(err)
	}
	slotsBase := metrics.SlotsActive.Value()
	admitted := metrics.Admissions.Value()
	req := shapedRequest([][]float64{make([]float64, lease.Spec.Hidden-1)}, "", 0)
	if err := e.submit(req); err != nil {
		t.Fatal(err)
	}
	step(e, e.machines[0])
	if err := reply(req); err == nil {
		t.Fatal("a request with a short input vector was served")
	}
	if got := e.load().Pending; got != 0 {
		t.Errorf("pending = %d when the failure was answered", got)
	}
	if got := metrics.SlotsActive.Value(); got != slotsBase {
		t.Errorf("slot gauge moved by %d for a request that never held a slot", got-slotsBase)
	}
	if got := metrics.Admissions.Value(); got != admitted {
		t.Errorf("a failed admission was counted (%d)", got-admitted)
	}
	// The slot it was trying is free again: the next request is served.
	if _, err := dp.InferAs("", lease.ID, testInputs(lease.Spec, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptErrorSurface pins the operation's edges: unknown leases
// error, leases with no engine yet report zero work, and a lease with an
// engine reports the demand it posted (n <= 0: one machine's slots).
func TestPreemptErrorSurface(t *testing.T) {
	opts := DefaultInferOptions()
	_, dp, lease := testPlane(t, opts)
	if _, err := dp.Preempt(lease.ID+999, 1); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("unknown lease: err = %v, want ErrUnknownLease", err)
	}
	if n, err := dp.Preempt(lease.ID, 1); err != nil || n != 0 {
		t.Errorf("no engine yet: got (%d, %v), want (0, nil)", n, err)
	}
	if _, err := dp.InferAs("", lease.ID, testInputs(lease.Spec, 1)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ n, want int }{{3, 3}, {0, opts.MaxBatch}} {
		if n, err := dp.Preempt(lease.ID, c.n); err != nil || n != c.want {
			t.Errorf("Preempt(%d) with an engine: got (%d, %v), want (%d, nil)", c.n, n, err, c.want)
		}
	}
}

// TestReleaseMidFlightCleansUp is the Release regression for the
// preemption-era engine: releasing a lease while weighted tenants have
// requests queued, resident, and mid-preemption must retire every slot
// cleanly (no gauge residue), leave no per-tenant queue-depth residue,
// and keep serving other deployments afterwards.
func TestReleaseMidFlightCleansUp(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 2
	opts.Preempt = true
	svc, dp, lease := preemptPlane(t, opts)

	slotsBase := metrics.SlotsActive.Value()
	base := metrics.Snapshot()

	e, err := dp.engine(mustRecord(t, dp, lease.ID))
	if err != nil {
		t.Fatal(err)
	}
	const N = 8
	reqs := make([]*inferRequest, N)
	for i := 0; i < N; i++ {
		tenant, weight := "bulk", 1
		if i%4 == 3 {
			tenant, weight = "rt", 8
		}
		reqs[i] = shapedRequest(testInputs(lease.Spec, int64(1100+i)), tenant, weight)
		if err := e.submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Kick a preemption into the mix so eviction/restore state is live
	// when the release lands.
	if _, err := dp.Preempt(lease.ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := dp.svc.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		if err := reply(req); err != nil && !errors.Is(err, ErrLeaseClosing) {
			t.Errorf("request %d: %v", i, err)
		}
	}

	if got := metrics.SlotsActive.Value(); got != slotsBase {
		t.Errorf("slot gauge residue after release: %d", got-slotsBase)
	}
	moved := metrics.Snapshot().Sub(base)
	for _, id := range []string{"bulk", "rt"} {
		if residue := moved.Tenant(metrics.TenantQueueDepth, id); residue != 0 {
			t.Errorf("tenant %q queue-depth residue: %d", id, residue)
		}
	}
	if _, ok := dp.Load(lease.ID); ok {
		t.Error("released lease still has an engine")
	}
	// The plane still serves fresh deployments with weighted tenants.
	l2, err := svc.Deploy(kernels.LayerSpec{Kind: kernels.GRU, Hidden: 64, TimeSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := testInputs(l2.Spec, 7)
	res, err := dp.InferAs("bulk", l2.ID, in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Outputs, referenceOutputs(t, l2, opts, in)) {
		t.Error("post-release deployment serves wrong outputs")
	}
}
