package rms

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/isa"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/resource"
)

// TestContinuousInferMatchesSolo is the continuous plane's end-to-end
// golden: concurrent variable-length requests over more machines than CI
// has Ps must each return exactly the solo-machine answer (bit-identical
// float64s from the same fp16 words), and slot accounting must conserve —
// every admission retires and the active-slot gauge returns to its
// baseline. Afterwards the lease is idle: nothing queued or pending.
func TestContinuousInferMatchesSolo(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 4
	opts.MaxBatch = 4
	_, dp, lease := testPlane(t, opts)

	base := metrics.Snapshot()
	const N = 16
	inputs := make([][][]float64, N)
	results := make([]*InferResult, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		full := testInputs(lease.Spec, int64(100+i))
		// Variable lengths: cycle 1..TimeSteps so streams retire at
		// different rounds and slots turn over mid-batch.
		inputs[i] = full[:1+i%lease.Spec.TimeSteps]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := dp.InferAs("", lease.ID, inputs[i])
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = &res
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if res == nil {
			t.Fatal("missing result")
		}
		if len(res.Outputs) != len(inputs[i]) {
			t.Fatalf("request %d: %d outputs for %d input steps", i, len(res.Outputs), len(inputs[i]))
		}
		ref := referenceOutputs(t, lease, opts, inputs[i])
		if !reflect.DeepEqual(res.Outputs, ref[:len(inputs[i])]) {
			t.Errorf("request %d: continuous result differs from solo execution", i)
		}
		if res.BatchSize < 1 || res.BatchSize > opts.MaxBatch {
			t.Errorf("request %d: batch size %d outside [1,%d]", i, res.BatchSize, opts.MaxBatch)
		}
	}

	// Slot conservation: admissions == retirements == served, and the
	// gauge is back at its baseline: retire vacates before it answers.
	if got := metrics.SlotsActive.Value() - base.Int(metrics.SlotsActive); got != 0 {
		t.Errorf("slot gauge residue after every response: %d", got)
	}
	delta := func(v *expvar.Int) int64 { return v.Value() - base.Int(v) }
	if got := delta(metrics.Admissions); got != N {
		t.Errorf("admissions delta = %d, want %d", got, N)
	}
	if rounds := delta(metrics.SlotRounds); rounds <= 0 {
		t.Error("no step rounds recorded")
	} else if occ := delta(metrics.SlotRoundOccupancy); occ < rounds {
		t.Errorf("occupancy sum %d < rounds %d", occ, rounds)
	}
	// answer settles pending before it answers, so the last response finds
	// the lease idle.
	if st, ok := dp.Load(lease.ID); !ok || st.QueueDepth != 0 || st.Pending != 0 {
		t.Errorf("after every response: load = %+v, ok=%v, want nothing queued or pending", st, ok)
	}
}

// TestStepRoundAllocatesNothing pins the steady state of a machine's
// rounds: a request allocates as much with one timestep as with eight, so
// the rounds in between allocate nothing.
func TestStepRoundAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops items under -race")
	}
	_, dp, lease := stepsPlane(t, DefaultInferOptions(), 8)
	in := testInputs(lease.Spec, 1)
	allocs := func(steps int) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := dp.InferAs("", lease.ID, in[:steps]); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, all := allocs(1), allocs(len(in))
	if one != all {
		t.Errorf("InferAs allocates %v times with 1 timestep and %v with %d", one, all, len(in))
	}
	// What is left per request is what its caller keeps: its outputs'
	// backing array and row headers (2), which InferAs shapes before
	// submit for retire to read into. The result itself is the pooled
	// request's, copied out by value; the request and its completion are
	// pooled, slots live in the machine, the fair queue links requests
	// through themselves, execution stats are values, and a built engine
	// is reached without copying the lease.
	if all > 2 {
		t.Errorf("warmed anonymous InferAs allocates %v times, want ≤ 2", all)
	}
}

// TestFailedRoundAnswersItsCohort reaches failCohort, the path a machine
// error takes during a round: with a Step program the machine refuses
// swapped into the engine's kernel, one round answers every member of the
// cohort with that error, and the slots, pending and the slot gauge are
// back at rest.
func TestFailedRoundAnswersItsCohort(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 2
	_, _, lease := testPlane(t, opts)
	e := steppedEngine(t, lease, opts)
	kern := *e.kern
	kern.Step = isa.Program{{Op: isa.NumOpcodes}}
	e.kern = &kern

	slotsBase := metrics.SlotsActive.Value()
	reqs := make([]*inferRequest, opts.MaxBatch)
	for i := range reqs {
		reqs[i] = shapedRequest(testInputs(lease.Spec, int64(i)), "", 0)
		if err := e.submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	cm := e.machines[0]
	step(e, cm)
	for i, req := range reqs {
		var xe *accel.ExecError
		if err := reply(req); !errors.As(err, &xe) || xe.Instr.Op != isa.NumOpcodes {
			t.Errorf("request %d: answered %v, want the refused Step program's error", i, err)
		}
	}
	if got := e.pending.Load(); got != 0 {
		t.Errorf("pending = %d after the failed round", got)
	}
	if cm.occupied != 0 {
		t.Errorf("%d slots occupied after the failed round", cm.occupied)
	}
	for s, sl := range cm.slots {
		if sl != (contSlot{}) {
			t.Errorf("slot %d still holds a stream after the failed round", s)
		}
	}
	if got := metrics.SlotsActive.Value(); got != slotsBase {
		t.Errorf("slot gauge residue after the failed round: %d", got-slotsBase)
	}
}

// TestPooledRequestAnswersItsOwnCaller: requests are pooled, so an answer
// written into a request its caller has already let go of, or read after
// the request was reused, reaches the wrong caller. 32 clients each send
// their own seeded inputs, over and over, while a driver preempts the
// lease, resizes it between 1 and 3 machines, and releases it. Every
// answer must be the client's own solo run bit for bit, every error one
// the lifecycle explains, and the slot gauge must return to its baseline.
func TestPooledRequestAnswersItsOwnCaller(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 2
	opts.MaxBatch = 2
	opts.Preempt = true
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	lease, err := svc.Deploy(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 8})
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDataPlane(svc, opts)
	t.Cleanup(dp.Close)

	slotsBase, base := metrics.SlotsActive.Value(), metrics.Snapshot()
	const clients = 32
	served := make(chan struct{}, clients) // a burst from every client between receives is counted
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		in := testInputs(lease.Spec, int64(2000+c))[:1+c%lease.Spec.TimeSteps]
		want := referenceOutputs(t, lease, opts, in)[:len(in)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				res, err := dp.InferAs("", lease.ID, in)
				switch {
				case errors.Is(err, ErrBusy):
				case errors.Is(err, ErrLeaseClosing), errors.Is(err, ErrUnknownLease):
					return
				case err != nil:
					t.Errorf("client %d: %v", c, err)
					return
				case !reflect.DeepEqual(res.Outputs, want):
					t.Errorf("client %d: answer is not its own inputs' solo run", c)
					return
				default:
					tell(served)
				}
			}
		}()
	}
	// Each lifecycle step lands while the clients are being served.
	progress := func() { awaitAnswers(t, served, clients+1) }
	progress()
	for i := 0; i < 3; i++ {
		if _, err := dp.Preempt(lease.ID, 0); err != nil {
			t.Fatal(err)
		}
		progress()
	}
	for range 4 {
		if err := dp.Resize(lease.ID); err != nil {
			t.Fatal(err)
		}
		progress()
	}
	if err := dp.svc.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := metrics.SlotsActive.Value(); got != slotsBase {
		t.Errorf("slot gauge residue after release: %d", got-slotsBase)
	}
	if snapDelta(base, metrics.SnapshotCaptures) == 0 {
		t.Error("no stream was checkpointed: preemption and resize moved nothing")
	}
}

// TestInferScratchAnswersItsOwnCaller is TestPooledRequestAnswersItsOwnCaller
// through POST /infer, where the decoded inputs, the result retire fills and
// the response buffer are pooled too: a scratch pooled while its stream is
// still resident, or reused before its response is written, answers the
// wrong caller. 64 clients each post their own inputs while the lease is
// preempted, resized and released; every 200 must be the client's own solo
// run bit for bit, and every other answer one the lifecycle explains.
func TestInferScratchAnswersItsOwnCaller(t *testing.T) {
	opts := DefaultInferOptions()
	// Two machines of four slots queue 64 requests, so no client spins on
	// 503s while the others are served.
	opts.Machines = 2
	opts.MaxBatch = 4
	opts.Preempt = true
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	lease, err := svc.Deploy(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 8})
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDataPlane(svc, opts)
	t.Cleanup(dp.Close)
	h := dp.Handler()

	base := metrics.Snapshot()
	const clients = 64
	served := make(chan struct{}, clients) // a burst from every client between receives is counted
	var wg sync.WaitGroup
	// Each client's want is its solo run through the data plane, which
	// TestContinuousInferMatchesSolo holds to the reference machine.
	bodies, wants := make([][]byte, clients), make([][][]float64, clients)
	for c := range bodies {
		in := testInputs(lease.Spec, int64(3000+c))[:1+c%lease.Spec.TimeSteps]
		solo, err := dp.InferAs("", lease.ID, in)
		if err != nil {
			t.Fatal(err)
		}
		if bodies[c], err = json.Marshal(inferBody{ID: lease.ID, Inputs: in}); err != nil {
			t.Fatal(err)
		}
		wants[c] = solo.Outputs
	}
	for c := 0; c < clients; c++ {
		body, want := bodies[c], wants[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
				var res struct {
					Outputs [][]float64 `json:"outputs"`
					Error   string      `json:"error"`
				}
				err := json.Unmarshal(w.Body.Bytes(), &res)
				switch {
				case w.Code == http.StatusServiceUnavailable && res.Error == ErrBusy.Error():
				case w.Code == http.StatusServiceUnavailable && res.Error == ErrLeaseClosing.Error(), w.Code == http.StatusNotFound:
					return
				case w.Code != http.StatusOK || err != nil:
					t.Errorf("client %d: %d %.200s", c, w.Code, w.Body.Bytes())
					return
				case !reflect.DeepEqual(res.Outputs, want):
					t.Errorf("client %d: answer is not its own inputs' solo run", c)
					return
				default:
					tell(served)
				}
			}
		}()
	}
	progress := func() { awaitAnswers(t, served, clients+1) }
	progress()
	for i := 0; i < 3; i++ {
		if _, err := dp.Preempt(lease.ID, 0); err != nil {
			t.Fatal(err)
		}
		progress()
	}
	for range 3 {
		if err := dp.Resize(lease.ID); err != nil {
			t.Fatal(err)
		}
		progress()
	}
	if err := svc.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if snapDelta(base, metrics.SnapshotCaptures) == 0 {
		t.Error("no stream was checkpointed: preemption and resize moved nothing")
	}
}

// tell reports one answer to awaitAnswers, dropping it when nobody is
// counting.
func tell(answers chan struct{}) {
	select {
	case answers <- struct{}{}:
	default:
	}
}

// awaitAnswers blocks until n answers are told after the call, failing the
// test if the lease stops answering.
func awaitAnswers(t *testing.T, answers chan struct{}, n int) {
	t.Helper()
	for len(answers) > 0 {
		<-answers
	}
	stalled := time.After(10 * time.Second)
	for range n {
		select {
		case <-answers:
		case <-stalled:
			t.Fatal("the lease stopped answering")
		}
	}
}

// raceEnabled reports a -race build.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// shapedRequest is newRequest with its result shaped for inputs, as
// InferAs shapes it.
func shapedRequest(inputs [][]float64, tenantID string, weight int) *inferRequest {
	req := newRequest(inputs, tenantID, weight)
	req.own.Outputs, _ = shapeRows(nil, nil, len(inputs), len(inputs[0]))
	return req
}

// steppedEngine builds lease's engine off any lease record, so no caller
// drives it: the test alone runs its machines' rounds (step,
// stepUntilIdle).
func steppedEngine(t *testing.T, lease *Lease, opts InferOptions) *contEngine {
	t.Helper()
	e, err := newContEngine(lease, testWeights(t, lease, opts), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// testWeights loads the weight set the data plane builds for lease, a
// model of its own, under opts.
func testWeights(t *testing.T, lease *Lease, opts InferOptions) *weightSet {
	t.Helper()
	w := &weightSet{key: weightKey{lease.Spec, opts.Tiles, opts.Seed + int64(lease.ID)}}
	if err := w.load(); err != nil {
		t.Fatal(err)
	}
	return w
}

// step runs one round of cm under its mutex, as a driving caller does.
func step(e *contEngine, cm *contMachine) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	e.round(cm)
}

// stepUntilIdle runs one round on each of e's machines in turn until
// nothing is pending. Every request is answered by then (answer settles
// pending first).
func stepUntilIdle(t *testing.T, e *contEngine) {
	t.Helper()
	for turns := 0; e.pending.Load() > 0; turns++ {
		if turns > 100_000 {
			t.Fatalf("%d requests still pending after %d turns", e.pending.Load(), turns)
		}
		for _, cm := range e.machines {
			step(e, cm)
		}
	}
}

// reply waits for req's answer and returns its error.
func reply(req *inferRequest) error {
	<-req.done
	return req.err
}

// TestContinuousAdmitsIntoRunningBatch pins the tentpole behavior: with a
// backlog of alternating short and long requests on one two-slot
// machine, a short stream's retirement must open its slot to the next
// queued request while the long co-rider is still mid-flight — an
// admission into a running batch. The test steps the engine, so the
// count is exact.
func TestContinuousAdmitsIntoRunningBatch(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 2
	_, _, lease := testPlane(t, opts)
	e := steppedEngine(t, lease, opts)

	base := metrics.AdmissionsIntoRunning.Value()
	// Alternating lengths (1, 2, 1, ...) guarantee mixed-length cohorts.
	const N = 12
	reqs := make([]*inferRequest, N)
	for i := 0; i < N; i++ {
		full := testInputs(lease.Spec, int64(i))
		reqs[i] = shapedRequest(full[:1+i%2], "", 0)
		if err := e.submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	stepUntilIdle(t, e)
	for i, req := range reqs {
		if err := reply(req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	switch got := metrics.AdmissionsIntoRunning.Value() - base; {
	case got == 0:
		t.Error("no admissions into a running batch — slots drained to empty between cohorts")
	case got != 5:
		t.Errorf("%d admissions into a running batch, want 5", got)
	}
}

// TestContinuousHandOff pins how a lease's machines pass between the
// callers that drive them: one that leaves a machine with another caller's
// stream resident posts the lease's baton, and the caller waiting on it
// takes the machine over. One machine of two slots serves a one-step and a
// two-step request in one cohort. The second caller found the machine
// held, so it waits before it drives; the first drives until its own
// answer, one round, and leaves the second's stream resident. The second
// must then be answered, not left waiting on a machine nobody steps.
func TestContinuousHandOff(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 2
	_, dp, lease := testPlane(t, opts)
	rec := mustRecord(t, dp, lease.ID)
	e, err := dp.engine(rec)
	if err != nil {
		t.Fatal(err)
	}
	in := testInputs(lease.Spec, 41)
	first, second := shapedRequest(in[:1], "", 0), shapedRequest(in, "", 0)
	for _, req := range []*inferRequest{first, second} {
		if err := e.submit(req); err != nil {
			t.Fatal(err)
		}
	}
	waited := make(chan error, 1)
	go func() { waited <- dp.await(rec, nil, second) }()
	e.drive(first, rec.baton)
	if err := reply(first); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waited:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the first caller left the second's stream resident, and the second was never handed the machine")
	}
	if !reflect.DeepEqual(second.res.Outputs, referenceOutputs(t, lease, opts, in)) {
		t.Error("the handed-off stream differs from its solo run")
	}
}

// TestContinuousResize exercises the engine-swap path: the lease keeps
// serving across a Resize and the new engine reports the new pool size.
func TestContinuousResize(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	_, dp, lease := testPlane(t, opts)

	if _, err := dp.InferAs("", lease.ID, testInputs(lease.Spec, 1)); err != nil {
		t.Fatal(err)
	}
	kern := dp.currentEngine(lease.ID).kern
	deepen(t, dp, lease.ID)
	if err := dp.Resize(lease.ID); err != nil {
		t.Fatal(err)
	}
	if dp.currentEngine(lease.ID).kern != kern {
		t.Error("Resize redrew the lease's weights instead of reusing its kernel")
	}
	res, err := dp.InferAs("", lease.ID, testInputs(lease.Spec, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := referenceOutputs(t, lease, opts, testInputs(lease.Spec, 2))
	if !reflect.DeepEqual(res.Outputs, want) {
		t.Error("post-resize result differs from solo execution")
	}
	st, ok := dp.Load(lease.ID)
	if !ok || st.Machines != 2 {
		t.Errorf("post-resize load = %+v, ok=%v, want 2 machines", st, ok)
	}
}

// TestLeaseTilesPaidOnce: an engine's machines bind their weight set's
// tiles and quantize none. At LSTM h=256 one copy of the packed tiles takes
// about 1 MB, which the set paid before the engines are built; an engine of
// four machines allocates less than that in all.
func TestLeaseTilesPaidOnce(t *testing.T) {
	lease := &Lease{ID: 1, Spec: kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 2}}
	w := testWeights(t, lease, DefaultInferOptions())
	built := func(machines int) int64 {
		opts := DefaultInferOptions()
		opts.Machines = machines
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e, err := newContEngine(lease, w, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		e.close()
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	one, four := built(1), built(4)
	t.Logf("newContEngine: %d kB at one machine, %d kB at four", one>>10, four>>10)
	if four >= 1<<20 {
		t.Errorf("an engine of four machines allocates %d kB, want < 1024 kB: its machines quantize tiles", four>>10)
	}
}

// TestEngineBuildAllocations prices what an online rebuild pays: an engine
// built over an already-loaded weight set (a replica's deploy), carried
// through its first answered request, with one machine of four slots at
// LSTM h=64 t=2. The machine's stream state is cut from a few slabs sized
// by the kernel's programs and the engine's cohort scratch from one, so
// this takes 25 objects and 11,976 bytes; it took 52 objects and 12,352
// bytes when a stream's registers and memos grew one slice at a time. The
// object bound is half the old count, the byte bound the old bytes.
func TestEngineBuildAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops items under -race")
	}
	const replicas, maxObjects, maxBytes = 8, 26, 12_352
	opts := DefaultInferOptions()
	opts.Machines, opts.MaxBatch = 1, 4
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2}
	src, err := svc.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDataPlane(svc, opts)
	t.Cleanup(dp.Close)
	in := testInputs(spec, 1)
	if _, err := dp.InferAs("", src.ID, in); err != nil { // loads the weight set
		t.Fatal(err)
	}
	var reps []*Lease
	for range replicas {
		l, err := svc.DeployWith(spec, PlaceOptions{Replicates: src.ID})
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, l)
	}
	// No GC before the count: it would empty the request pool, and the
	// count would price refilling it.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, l := range reps {
		if _, err := dp.InferAs("", l.ID, in); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / replicas
	size := float64(after.TotalAlloc-before.TotalAlloc) / replicas
	t.Logf("an engine build and its first answer: %.1f objects, %.0f bytes", objects, size)
	if objects > maxObjects || size > maxBytes {
		t.Errorf("an engine build and its first answer allocate %.1f objects and %.0f bytes, want ≤ %d and ≤ %d",
			objects, size, maxObjects, maxBytes)
	}
}

// TestLeaseTilesAtColumnWidth: the load that quantizes a lease's tiles
// (its weight set's) stores each at its own width. An LSTM h=64 lease's
// eight 64×64 tiles take 64 kB in the packed layout at NativeDim 128;
// padded to whole blocks they took 128 kB.
func TestLeaseTilesAtColumnWidth(t *testing.T) {
	kern, err := kernels.BuildRandom(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2}, DefaultInferOptions().Tiles, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = kern.LoadTiles()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	kb := (after.TotalAlloc - before.TotalAlloc) >> 10
	t.Logf("warming an h=64 lease: %d kB", kb)
	if kb > 70 {
		t.Errorf("warming an h=64 lease allocates %d kB, want ≤ 70 kB: tiles are padded to whole blocks", kb)
	}
}

// TestContinuousReleaseDrains asserts the close contract: a Release
// racing live traffic loses no admitted request — every Infer either
// completes or is shed with a closing/unknown-lease error, and close
// itself does not hang.
func TestContinuousReleaseDrains(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 2
	_, dp, lease := testPlane(t, opts)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := dp.InferAs("", lease.ID, testInputs(lease.Spec, int64(i)))
			if err != nil && !errors.Is(err, ErrLeaseClosing) && !errors.Is(err, ErrUnknownLease) {
				t.Errorf("infer during release: %v", err)
			}
		}(i)
	}
	if err := dp.svc.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestDataPlaneNeverSleeps is the gate on how this package, and the
// simulator that drives it, wait: every wait in the serving and shutdown
// paths blocks on a channel or a lock that the awaited event signals. A
// time.Sleep or a runtime.Gosched in non-test code is a poll loop — it
// burns the P the awaited work needs on a loaded host, and it is what made
// shutdown and transplant latency a multiple of 20 µs.
func TestDataPlaneNeverSleeps(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	for _, dir := range []string{".", "../simtest"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				files++
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok &&
							(x.Name == "time" && sel.Sel.Name == "Sleep" || x.Name == "runtime" && sel.Sel.Name == "Gosched") {
							t.Errorf("%s: %s.%s in the data plane or its simulator", fset.Position(call.Pos()), x.Name, sel.Sel.Name)
						}
					}
					return true
				})
			}
		}
	}
	if files == 0 {
		t.Fatal("parsed no source files")
	}
}
