package rms

import (
	"errors"
	"expvar"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
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
	// What is left per request: the request and its response channel (3),
	// its slot (1), the outputs (2), the InferResult (1), and the fair
	// queue's push and take (2). Execution stats are values and a built
	// engine is reached without copying the lease, so neither adds any.
	if all > 9 {
		t.Errorf("warmed anonymous InferAs allocates %v times, want ≤ 9", all)
	}
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
		reqs[i] = &inferRequest{
			inputs:   full[:1+i%2],
			enqueued: time.Now(),
			resp:     make(chan inferResponse, 1),
		}
		if err := e.submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, req := range reqs {
		r := <-req.resp
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
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
		e, err := newContEngine(lease, nil, opts, nil)
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
	if err := dp.Release(lease.ID); err != nil {
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
