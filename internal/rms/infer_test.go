package rms

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/resource"
)

func testPlane(t *testing.T, opts InferOptions) (*Service, *DataPlane, *Lease) {
	t.Helper()
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	lease, err := svc.Deploy(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDataPlane(svc, opts)
	t.Cleanup(dp.Close)
	return svc, dp, lease
}

// testHandler is the HTTP surface over a service with a default data plane
// behind it, closed with the test.
func testHandler(t *testing.T, svc *Service) http.Handler {
	t.Helper()
	dp := NewDataPlane(svc, DefaultInferOptions())
	t.Cleanup(dp.Close)
	return dp.Handler()
}

// waitFor polls a state predicate until it holds, failing the test after a
// generous deadline. Tests wait on observable state, never on bare sleeps:
// a sleep tuned to "usually long enough" flakes under -race and load, while
// a predicate poll is exact and terminates as soon as the state is reached.
func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func testInputs(spec kernels.LayerSpec, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	xs := make([][]float64, spec.TimeSteps)
	for t := range xs {
		x := make([]float64, spec.Hidden)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		xs[t] = x
	}
	return xs
}

// referenceOutputs runs the lease's layer directly on a standalone machine
// (same derived weights), bypassing the data plane.
func referenceOutputs(t *testing.T, lease *Lease, opts InferOptions, inputs [][]float64) [][]float64 {
	t.Helper()
	spec := lease.Spec
	w := kernels.RandomWeights(spec.Kind, spec.Hidden, opts.Seed+int64(lease.ID))
	k, err := kernels.Build(w, spec.TimeSteps, opts.Tiles)
	if err != nil {
		t.Fatal(err)
	}
	m, err := k.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	for tt, x := range inputs {
		if err := k.SetInput(m, tt, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(k.Prog); err != nil {
		t.Fatal(err)
	}
	outs := make([][]float64, spec.TimeSteps)
	for tt := range outs {
		if outs[tt], err = k.ReadOutput(m, tt); err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

func TestInferMatchesDirectKernel(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	_, dp, lease := testPlane(t, opts)
	inputs := testInputs(lease.Spec, 3)
	res, err := dp.InferAs("", lease.ID, inputs)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceOutputs(t, lease, opts, inputs)
	if !reflect.DeepEqual(res.Outputs, want) {
		t.Error("data-plane inference differs from direct kernel execution")
	}
	if res.LeaseID != lease.ID || res.BatchSize < 1 {
		t.Errorf("result metadata = %+v", res)
	}
	if res.BatchStats.Instructions == 0 {
		t.Error("batch stats not threaded through")
	}
}

func TestInferUnknownAndReleasedLease(t *testing.T) {
	opts := DefaultInferOptions()
	_, dp, lease := testPlane(t, opts)
	if _, err := dp.InferAs("", 9999, testInputs(lease.Spec, 1)); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("unknown lease: %v", err)
	}
	if _, err := dp.InferAs("", lease.ID, testInputs(lease.Spec, 1)); err != nil {
		t.Fatal(err)
	}
	if err := dp.svc.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := dp.InferAs("", lease.ID, testInputs(lease.Spec, 1)); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("released lease: %v", err)
	}
}

func TestInferValidatesShape(t *testing.T) {
	opts := DefaultInferOptions()
	_, dp, lease := testPlane(t, opts)
	// Once against the service's lease, before any engine is built, and
	// once against the built engine's kernel.
	for _, built := range []bool{false, true} {
		if _, err := dp.InferAs("", lease.ID, [][]float64{{1, 2}}); err == nil {
			t.Error("short input accepted")
		}
		bad := testInputs(lease.Spec, 1)
		bad[1] = bad[1][:10]
		if _, err := dp.InferAs("", lease.ID, bad); err == nil || !strings.Contains(err.Error(), "hidden size") {
			t.Errorf("wrong hidden size: err %v, want the shape error", err)
		}
		// Elements binary16 rounds to ±Inf or NaN would be flushed to zero by
		// the quantizer and answered as if the input were 0.
		for _, v := range []float64{65520, -1e30, math.Inf(1), math.NaN()} {
			in := testInputs(lease.Spec, 1)
			in[1][7] = v
			var rerr *InputRangeError
			if _, err := dp.InferAs("", lease.ID, in); !errors.As(err, &rerr) || rerr.Step != 1 || rerr.Elem != 7 {
				t.Errorf("input element %g: err %v, want an InputRangeError at input 1 element 7", v, err)
			}
		}
		if _, ok := dp.Load(lease.ID); ok != built {
			t.Fatalf("engine built = %v after refused requests, want %v", ok, built)
		}
		in := testInputs(lease.Spec, 1)
		in[0][0] = 65519 // rounds to 65504, the largest finite binary16
		if _, err := dp.InferAs("", lease.ID, in); err != nil {
			t.Errorf("largest representable input refused: %v", err)
		}
	}
}

// TestInferConcurrentLoad hammers one lease from many goroutines; run
// under -race this is the data plane's concurrency guard.
func TestInferConcurrentLoad(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 2
	opts.MaxBatch = 4
	_, dp, lease := testPlane(t, opts)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := dp.InferAs("", lease.ID, testInputs(lease.Spec, int64(g*10+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestInferHTTP(t *testing.T) {
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultInferOptions()
	dp := NewDataPlane(svc, opts)
	defer dp.Close()
	srv := httptest.NewServer(dp.Handler())
	defer srv.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp = post("/deploy", map[string]any{"kind": "LSTM", "hidden": 256, "timesteps": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: %d", resp.StatusCode)
	}
	var lease Lease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 2}
	resp = post("/infer", map[string]any{"id": lease.ID, "inputs": testInputs(spec, 5)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d", resp.StatusCode)
	}
	var res InferResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(res.Outputs) != 2 || len(res.Outputs[0]) != 256 {
		t.Errorf("infer outputs shape %dx%d", len(res.Outputs), len(res.Outputs[0]))
	}
	if res.BatchStats.ByOp == (accel.OpCounts{}) {
		t.Error("infer response carries no batch_stats.by_op")
	}

	resp = post("/infer", map[string]any{"id": lease.ID, "inputs": [][]float64{{1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad shape: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp = post("/release", map[string]any{"id": lease.ID})
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("release: %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = post("/infer", map[string]any{"id": lease.ID, "inputs": testInputs(spec, 5)})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("infer after release: %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	if got := svc.Status().ActiveLeases; got != 0 {
		t.Errorf("active leases after release = %d", got)
	}

	// The third cell kind, spelled the way the .mlw DSL spells it: /deploy
	// used to know LSTM and GRU only. What it serves must be the attention
	// cell: bit-identical to the attention kernel built from the same weights.
	attn := kernels.LayerSpec{Kind: kernels.Attention, Hidden: 64, TimeSteps: 3}
	resp = post("/deploy", map[string]any{"kind": "attention", "hidden": attn.Hidden, "timesteps": attn.TimeSteps})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy attention: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if lease.SpecString != attn.String() {
		t.Fatalf("deployed %s, want %v", lease.SpecString, attn)
	}
	in := testInputs(attn, 6)
	resp = post("/infer", map[string]any{"id": lease.ID, "inputs": in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer attention: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := referenceOutputs(t, &Lease{ID: lease.ID, Spec: attn}, opts, in)
	if !reflect.DeepEqual(res.Outputs, want) {
		t.Errorf("served attention outputs differ from the attention kernel run directly (which kernels holds to the float64 reference)")
	}
}

// TestClosedPlaneStaysClosed holds Close to its word: a closed plane
// builds no engine for a live lease, neither lazily for InferAs nor
// through Resize, and the lease can still be released.
func TestClosedPlaneStaysClosed(t *testing.T) {
	svc, dp, lease := testPlane(t, DefaultInferOptions())
	in := testInputs(lease.Spec, 2)
	if _, err := dp.InferAs("", lease.ID, in); err != nil {
		t.Fatal(err)
	}
	dp.Close()
	if _, err := dp.InferAs("", lease.ID, in); !errors.Is(err, ErrLeaseClosing) {
		t.Errorf("InferAs after Close: %v, want ErrLeaseClosing", err)
	}
	if err := dp.Resize(lease.ID, 2); !errors.Is(err, ErrLeaseClosing) {
		t.Errorf("Resize after Close: %v, want ErrLeaseClosing", err)
	}
	if _, ok := dp.Load(lease.ID); ok {
		t.Error("Load reports an engine on a closed plane")
	}
	if err := svc.Release(lease.ID); err != nil {
		t.Errorf("Release after Close: %v", err)
	}
}

func TestResizeRacingReleaseDoesNotLeakEngine(t *testing.T) {
	svc, dp, lease := testPlane(t, DefaultInferOptions())
	// Keep resizing while the lease is released; the loop stops at the
	// first error (unknown lease, or the tombstone blocking the install).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for dp.Resize(lease.ID, 2) == nil {
		}
	}()
	// Release only after at least one resize landed, so the loop is
	// provably mid-flight when the lease goes away.
	waitFor(t, "first resize to land", func() bool {
		st, ok := dp.Load(lease.ID)
		return ok && st.Machines == 2
	})
	if err := svc.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	<-done
	dp.mu.Lock()
	_, leaked := dp.engines[lease.ID]
	dp.mu.Unlock()
	if leaked {
		t.Fatal("engine installed for a released lease")
	}
	if _, ok := dp.Load(lease.ID); ok {
		t.Fatal("Load reports an engine for a released lease")
	}
	// The tombstone also blocks the lazy engine build from a stale lease
	// snapshot (an Infer that looked the lease up before the release) and
	// a Resize that passed its lease lookup before the drain.
	if _, err := dp.engine(lease); !errors.Is(err, ErrLeaseClosing) {
		t.Fatalf("engine() on released lease: %v, want ErrLeaseClosing", err)
	}
	if err := dp.Resize(lease.ID, 2); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("Resize on released lease: %v, want ErrUnknownLease", err)
	}
}
