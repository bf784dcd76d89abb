package rms

import (
	"errors"
	"expvar"
	"reflect"
	"runtime"
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
	t.Helper()
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	lease, err := svc.Deploy(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 16})
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDataPlane(svc, opts)
	t.Cleanup(dp.Close)
	return svc, dp, lease
}

// snapDelta is how far a counter has moved since base was read.
func snapDelta(base metrics.Values, v *expvar.Int) int64 {
	return v.Value() - base.Int(v)
}

// TestPreemptGoldenTwin is the data-plane golden preempted-twin: streams
// evicted mid-sequence by explicit preemption and restored into whatever
// slot frees up next must return outputs bit-identical to a
// never-preempted solo run, and every checkpoint captured must be
// matched by a restore.
func TestPreemptGoldenTwin(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 2
	_, dp, lease := preemptPlane(t, opts)

	base := metrics.Snapshot()
	const N = 6
	inputs := make([][][]float64, N)
	results := make([]*InferResult, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		inputs[i] = testInputs(lease.Spec, int64(300+i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := dp.Infer(lease.ID, inputs[i])
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	// Hammer explicit preemption while the backlog drains. The progress
	// guard (one step minimum per residency) bounds the churn, so the
	// backlog still finishes.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for snapDelta(base, metrics.PreemptEvictions) == 0 {
		select {
		case <-done:
			t.Fatal("backlog drained before any preemption landed")
		default:
		}
		if _, err := dp.Preempt(lease.ID, 1); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	<-done

	for i, res := range results {
		if res == nil {
			t.Fatal("missing result")
		}
		ref := referenceOutputs(t, lease, opts, inputs[i])
		if !reflect.DeepEqual(res.Outputs, ref) {
			t.Errorf("request %d: restored stream differs from never-preempted twin", i)
		}
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

// TestResizeTransplantsResidentStreams pins the make-before-break data
// path of a depth migration: a Resize mid-flight checkpoints the old
// pool's resident streams and resumes them on the new pool — different
// machine count, same bit-exact outputs, nothing re-run from scratch and
// nothing answered with an error.
func TestResizeTransplantsResidentStreams(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 4
	_, dp, lease := preemptPlane(t, opts)

	base := metrics.Snapshot()
	slotsBase := metrics.SlotsActive.Value()
	// A deep backlog (retrying past the queue cap and the brief
	// engine-swap window) keeps the old pool's slots full for the whole
	// time Resize spends building the new pool, so the transplant always
	// finds resident streams to checkpoint.
	// Sequence lengths differ (9..16 steps) so the four slots retire and
	// refill at different rounds: with equal lengths every resident finishes
	// in the same round, and a Resize landing on it finds nothing resident
	// (one run in thirty, more often the faster the kernel). The backlog
	// is sized to outlast Resize's engine build by several times.
	const N, patterns = 192, 8
	inputs := make([][][]float64, patterns)
	refs := make([][][]float64, patterns)
	for p := 0; p < patterns; p++ {
		inputs[p] = testInputs(lease.Spec, int64(500+p))[:lease.Spec.TimeSteps-p]
		refs[p] = referenceOutputs(t, lease, opts, inputs[p])[:len(inputs[p])]
	}
	results := make([]*InferResult, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := inputs[i%patterns]
			deadline := time.Now().Add(30 * time.Second)
			for {
				res, err := dp.Infer(lease.ID, in)
				if errors.Is(err, ErrBusy) || errors.Is(err, ErrLeaseClosing) {
					if time.Now().After(deadline) {
						t.Errorf("request %d: still shed at deadline: %v", i, err)
						return
					}
					time.Sleep(200 * time.Microsecond)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = res
				return
			}
		}(i)
	}
	// Busy-wait (yield, don't sleep): the residency window outlives the
	// whole backlog, but coarse-timer kernels can starve a sleeping poller
	// under load.
	resDeadline := time.Now().Add(10 * time.Second)
	for metrics.SlotsActive.Value() <= slotsBase {
		if time.Now().After(resDeadline) {
			t.Fatal("streams never became resident")
		}
		runtime.Gosched()
	}
	if err := dp.Resize(lease.ID, 2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i, res := range results {
		if res == nil {
			t.Fatal("missing result")
		}
		if !reflect.DeepEqual(res.Outputs, refs[i%patterns]) {
			t.Errorf("request %d: transplanted stream differs from solo run", i)
		}
	}
	if st, ok := dp.Load(lease.ID); !ok || st.Machines != 2 {
		t.Errorf("post-resize load = %+v, ok=%v, want 2 machines", st, ok)
	}
	if moved := snapDelta(base, metrics.SnapshotCaptures); moved == 0 {
		t.Error("resize moved no checkpoints — transplant did not run")
	}
	if c, r := snapDelta(base, metrics.SnapshotCaptures), snapDelta(base, metrics.SnapshotRestores); c != r {
		t.Errorf("captures %d != restores %d", c, r)
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
				res, err := dp.Infer(lease.ID, in)
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
		if err := dp.Resize(lease.ID, 1+i%2); err != nil {
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
// finish bit-identical.
func TestAutoPreemptFavorsLatencyClass(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 2
	opts.Preempt = true
	_, dp, lease := preemptPlane(t, opts)

	e, err := dp.engine(mustLease(t, dp.svc, lease.ID))
	if err != nil {
		t.Fatal(err)
	}
	base := metrics.Snapshot()
	slotsBase := metrics.SlotsActive.Value()

	const B = 6
	reqs := make([]*inferRequest, 0, B+1)
	inputs := make([][][]float64, 0, B+1)
	for i := 0; i < B; i++ {
		in := testInputs(lease.Spec, int64(700+i))
		req := &inferRequest{
			inputs: in, enqueued: time.Now(), resp: make(chan inferResponse, 1),
			tenant: "bulk", weight: 1,
		}
		if err := e.submit(req); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
		inputs = append(inputs, in)
	}
	// Once the machine is full of batch-class streams, a latency-class
	// arrival must preempt rather than wait for a retirement.
	waitFor(t, "machine to fill", func() bool {
		return metrics.SlotsActive.Value()-slotsBase >= int64(opts.MaxBatch)
	})
	in := testInputs(lease.Spec, 799)
	rt := &inferRequest{
		inputs: in, enqueued: time.Now(), resp: make(chan inferResponse, 1),
		tenant: "rt", weight: 8,
	}
	if err := e.submit(rt); err != nil {
		t.Fatal(err)
	}
	reqs = append(reqs, rt)
	inputs = append(inputs, in)

	for i, req := range reqs {
		r := <-req.resp
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		ref := referenceOutputs(t, lease, opts, inputs[i])
		if !reflect.DeepEqual(r.result.Outputs, ref) {
			t.Errorf("request %d: outputs differ from solo run", i)
		}
	}
	if snapDelta(base, metrics.PreemptEvictions) == 0 {
		t.Error("latency-class arrival triggered no preemption on a full machine")
	}
	if c, r := snapDelta(base, metrics.SnapshotCaptures), snapDelta(base, metrics.SnapshotRestores); c != r {
		t.Errorf("captures %d != restores %d", c, r)
	}
	if ev, rs := snapDelta(base, metrics.PreemptEvictions), snapDelta(base, metrics.PreemptRestores); ev != rs {
		t.Errorf("evictions %d != restores %d", ev, rs)
	}
}

// TestCloseWithinCheckpointsAtDeadline pins the deadline-bounded drain:
// streams still resident when the deadline passes are checkpointed
// (counted for the shutdown log) and their callers answered
// ErrLeaseClosing, and the slot gauge still drains to its baseline.
func TestCloseWithinCheckpointsAtDeadline(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 2
	_, dp, lease := preemptPlane(t, opts)

	slotsBase := metrics.SlotsActive.Value()
	drainBase := metrics.DrainCheckpoints.Value()
	e, err := dp.engine(mustLease(t, dp.svc, lease.ID))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the queue to its cap (MaxBatch * Machines * 8 = 16) with direct
	// submissions, so the engine provably holds a deep backlog when the
	// already-expired deadline lands. Lengths differ (9..16 steps) so the
	// two slots never retire in the same round and leave nothing resident.
	reqs := make([]*inferRequest, 16)
	for i := range reqs {
		reqs[i] = &inferRequest{
			inputs:   testInputs(lease.Spec, int64(900+i))[:lease.Spec.TimeSteps-i%8],
			enqueued: time.Now(), resp: make(chan inferResponse, 1),
		}
		if err := e.submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Busy-wait for the machine to fill: the residency window is a few
	// milliseconds, finer than time.Sleep's granularity on coarse-timer
	// kernels, so yield instead of sleeping.
	fillDeadline := time.Now().Add(5 * time.Second)
	for metrics.SlotsActive.Value()-slotsBase < int64(opts.MaxBatch) {
		if time.Now().After(fillDeadline) {
			t.Fatal("machine never filled")
		}
		runtime.Gosched()
	}
	n := dp.CloseWithin(0)
	if n == 0 {
		t.Error("deadline drain checkpointed no streams")
	}
	shed := 0
	for i, req := range reqs {
		r := <-req.resp
		if r.err != nil {
			if !errors.Is(r.err, ErrLeaseClosing) {
				t.Errorf("request %d: %v", i, r.err)
			}
			shed++
		}
	}
	if shed == 0 {
		t.Error("deadline drain shed no requests")
	}
	if got := metrics.DrainCheckpoints.Value() - drainBase; got != int64(n) {
		t.Errorf("drain checkpoint counter delta = %d, CloseWithin reported %d", got, n)
	}
	if got := metrics.SlotsActive.Value(); got != slotsBase {
		t.Errorf("slot gauge residue after deadline drain: %d", got-slotsBase)
	}
}

// TestPreemptErrorSurface pins the operation's edges: unknown leases
// error, and leases with no engine yet report zero work.
func TestPreemptErrorSurface(t *testing.T) {
	opts := DefaultInferOptions()
	_, dp, lease := testPlane(t, opts)
	if _, err := dp.Preempt(lease.ID+999, 1); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("unknown lease: err = %v, want ErrUnknownLease", err)
	}
	if n, err := dp.Preempt(lease.ID, 1); err != nil || n != 0 {
		t.Errorf("no engine yet: got (%d, %v), want (0, nil)", n, err)
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

	e, err := dp.engine(mustLease(t, dp.svc, lease.ID))
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
		reqs[i] = &inferRequest{
			inputs:   testInputs(lease.Spec, int64(1100+i)),
			enqueued: time.Now(), resp: make(chan inferResponse, 1),
			tenant: tenant, weight: weight,
		}
		if err := e.submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Kick a preemption into the mix so eviction/restore state is live
	// when the release lands.
	if _, err := dp.Preempt(lease.ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := dp.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		r := <-req.resp
		if r.err != nil && !errors.Is(r.err, ErrLeaseClosing) {
			t.Errorf("request %d: %v", i, r.err)
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
