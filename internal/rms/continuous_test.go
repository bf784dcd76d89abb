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
	"sync/atomic"
	"testing"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/resource"
)

// TestContinuousInferMatchesSolo is the continuous plane's end-to-end
// golden: concurrent variable-length requests over more machines than CI
// has Ps must each return exactly the solo-machine answer (bit-identical
// float64s from the same fp16 words), and slot accounting must conserve —
// every admission retires and the active-slot gauge returns to its
// baseline. Afterwards every machine parks: nothing queued, pending or in
// flight.
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
			results[i] = res
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
	// gauge drains back to its baseline (retirement decrements may land
	// just after the response, so poll).
	waitFor(t, "slot gauge to drain", func() bool {
		return metrics.SlotsActive.Value() == base.Int(metrics.SlotsActive)
	})
	delta := func(v *expvar.Int) int64 { return v.Value() - base.Int(v) }
	if got := delta(metrics.Admissions); got != N {
		t.Errorf("admissions delta = %d, want %d", got, N)
	}
	if rounds := delta(metrics.SlotRounds); rounds <= 0 {
		t.Error("no step rounds recorded")
	} else if occ := delta(metrics.SlotRoundOccupancy); occ < rounds {
		t.Errorf("occupancy sum %d < rounds %d", occ, rounds)
	}
	waitFor(t, "every machine to park", func() bool {
		st, ok := dp.Load(lease.ID)
		return ok && st.InFlight == 0 && st.QueueDepth == 0 && st.Pending == 0
	})
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
	// What is left per request is what its caller keeps: the InferResult,
	// its outputs' backing array and row headers (3), which InferAs
	// attaches before submit for retire to read into. The request and its
	// completion are pooled, slots live in the machine, the fair queue
	// links requests through themselves, execution stats are values, and a
	// built engine is reached without copying the lease.
	if all > 3 {
		t.Errorf("warmed anonymous InferAs allocates %v times, want ≤ 3", all)
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
	var served atomic.Int64
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
				case res == nil || !reflect.DeepEqual(res.Outputs, want):
					t.Errorf("client %d: answer is not its own inputs' solo run", c)
					return
				default:
					served.Add(1)
				}
			}
		}()
	}
	// Each lifecycle step lands while the clients are being served.
	progress := func() {
		n := served.Load()
		waitFor(t, "more answers", func() bool { return served.Load() > n+clients })
	}
	progress()
	for i := 0; i < 3; i++ {
		if _, err := dp.Preempt(lease.ID, 0); err != nil {
			t.Fatal(err)
		}
		progress()
	}
	for _, machines := range []int{1, 3, 1, 3} {
		if err := dp.Resize(lease.ID, machines); err != nil {
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
	var served atomic.Int64
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
					served.Add(1)
				}
			}
		}()
	}
	progress := func() {
		n := served.Load()
		waitFor(t, "more answers", func() bool { return served.Load() > n+clients })
	}
	progress()
	for i := 0; i < 3; i++ {
		if _, err := dp.Preempt(lease.ID, 0); err != nil {
			t.Fatal(err)
		}
		progress()
	}
	for _, machines := range []int{3, 2, 3} {
		if err := dp.Resize(lease.ID, machines); err != nil {
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

// shapedRequest is newRequest answering into a fresh result shaped for
// inputs, as inferInto attaches one.
func shapedRequest(inputs [][]float64, tenantID string, weight int) *inferRequest {
	res := new(InferResult)
	res.Outputs, _ = shapeRows(nil, nil, len(inputs), len(inputs[0]))
	return newRequest(inputs, res, tenantID, weight)
}

// TestContinuousAdmitsIntoRunningBatch pins the tentpole behavior: with a
// backlog of alternating short and long requests on one two-slot
// machine, a short stream's retirement must open its slot to the next
// queued request while the long co-rider is still mid-flight — an
// admission into a running batch.
func TestContinuousAdmitsIntoRunningBatch(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 2
	_, dp, lease := testPlane(t, opts)

	base := metrics.AdmissionsIntoRunning.Value()
	e, err := dp.engine(mustLease(t, dp.svc, lease.ID))
	if err != nil {
		t.Fatal(err)
	}
	// Submit directly so queue order is deterministic: alternating
	// lengths guarantee mixed-length cohorts.
	const N = 12
	reqs := make([]*inferRequest, N)
	for i := 0; i < N; i++ {
		full := testInputs(lease.Spec, int64(i))
		reqs[i] = shapedRequest(full[:1+i%2], "", 0)
		if err := e.submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, req := range reqs {
		if err := req.wait(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := metrics.AdmissionsIntoRunning.Value() - base; got == 0 {
		t.Error("no admissions into a running batch — slots drained to empty between cohorts")
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
	if err := dp.Resize(lease.ID, 3); err != nil {
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
	if !ok || st.Machines != 3 {
		t.Errorf("post-resize load = %+v, ok=%v, want 3 machines", st, ok)
	}
}

// TestLeaseTilesPaidOnce: a lease's machines quantize its weights once. At
// LSTM h=256 one machine's packed tiles take about 1 MB; an engine of four
// machines allocates less than that more than an engine of one, where each
// extra machine used to quantize its own copy (about 3 MB more).
func TestLeaseTilesPaidOnce(t *testing.T) {
	lease := &Lease{ID: 1, Spec: kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 2}}
	built := func(machines int) int64 {
		opts := DefaultInferOptions()
		opts.Machines = machines
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e, err := newContEngine(lease, nil, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		e.close()
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	one, four := built(1), built(4)
	t.Logf("newContEngine: %d kB at one machine, %d kB at four", one>>10, four>>10)
	if four-one >= 1<<20 {
		t.Errorf("three more machines allocate %d kB more, want < 1024 kB: the tiles are paid per machine", (four-one)>>10)
	}
}

// TestLeaseTilesAtColumnWidth: the warm-up that quantizes a lease's tiles
// stores each at its own width. An LSTM h=64 lease's eight 64×64 tiles take
// 64 kB in the packed layout at NativeDim 128; padded to whole blocks they
// took 128 kB.
func TestLeaseTilesAtColumnWidth(t *testing.T) {
	kern, err := kernels.BuildRandom(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2}, DefaultInferOptions().Tiles, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kern.NewBatchMachine(DefaultInferOptions().MaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = m.Run(kern.SharedInit)
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

// TestDataPlaneNeverSleeps is the gate on how this package waits: every
// wait in the serving and shutdown paths blocks on a channel, a lock or a
// WaitGroup that the awaited event signals. A time.Sleep or a
// runtime.Gosched in non-test code is a poll loop — it burns the P the
// awaited worker needs on a loaded host, and it is what made shutdown and
// transplant latency a multiple of 20 µs.
func TestDataPlaneNeverSleeps(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
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
						t.Errorf("%s: %s.%s in the data plane", fset.Position(call.Pos()), x.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	if files == 0 {
		t.Fatal("parsed no source files")
	}
}
