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

// deepen migrates the lease to depth 2, where its next engine runs two
// machines per InferOptions.Machines.
func deepen(t *testing.T, dp *DataPlane, id int) {
	t.Helper()
	if _, err := dp.svc.Migrate(id, 2, nil, false, nil); err != nil {
		t.Fatal(err)
	}
}

// testHandler is the HTTP surface over a service with a default data plane
// behind it, closed with the test.
func testHandler(t *testing.T, svc *Service) http.Handler {
	t.Helper()
	dp := NewDataPlane(svc, DefaultInferOptions())
	t.Cleanup(dp.Close)
	return dp.Handler()
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
	e := dp.currentEngine(lease.ID)
	if err := dp.svc.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := dp.InferAs("", lease.ID, testInputs(lease.Spec, 1)); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("released lease: %v", err)
	}
	// Release stops the engine it takes off the record: one captured before
	// it serves nothing after it.
	if err := e.submit(shapedRequest(testInputs(lease.Spec, 1), "", 0)); !errors.Is(err, ErrLeaseClosing) {
		t.Errorf("engine captured before Release took a submit after it: %v, want ErrLeaseClosing", err)
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
	if err := dp.Resize(lease.ID); !errors.Is(err, ErrLeaseClosing) {
		t.Errorf("Resize after Close: %v, want ErrLeaseClosing", err)
	}
	if _, ok := dp.Load(lease.ID); ok {
		t.Error("Load reports an engine on a closed plane")
	}
	if err := svc.Release(lease.ID); err != nil {
		t.Errorf("Release after Close: %v", err)
	}
}

// recordEngine reads rec's engine as the data plane does, under the
// service lock.
func recordEngine(dp *DataPlane, rec *leaseRecord) *contEngine {
	dp.svc.mu.RLock()
	defer dp.svc.mu.RUnlock()
	return rec.engine
}

// TestReleaseBeatsLazyBuild drives a first InferAs that found the record
// before Release or Close through its engine build: the build finds the
// record released or the plane closed, stops the engine it made, and
// answers ErrLeaseClosing, never a nil engine with a nil error.
func TestReleaseBeatsLazyBuild(t *testing.T) {
	svc, dp, lease := testPlane(t, DefaultInferOptions())
	second, err := svc.Deploy(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	released, open := mustRecord(t, dp, lease.ID), mustRecord(t, dp, second.ID)
	if err := svc.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	if e, err := dp.engine(released); e != nil || !errors.Is(err, ErrLeaseClosing) {
		t.Errorf("build on a released record: %v, %v; want nil, ErrLeaseClosing", e, err)
	}
	dp.Close()
	if e, err := dp.engine(open); e != nil || !errors.Is(err, ErrLeaseClosing) {
		t.Errorf("build on a closed plane: %v, %v; want nil, ErrLeaseClosing", e, err)
	}
	for _, rec := range []*leaseRecord{released, open} {
		if recordEngine(dp, rec) != nil {
			t.Errorf("lease %d: a losing build installed its engine", rec.ID)
		}
	}
}

// TestResizeRacingReleaseDoesNotLeakEngine races both ways an engine is
// installed, a Resize and a first InferAs's lazy build, against Release
// (and the build against Close): every answer is nil, ErrLeaseClosing or
// ErrUnknownLease, and no engine is reachable through a released record.
func TestResizeRacingReleaseDoesNotLeakEngine(t *testing.T) {
	svc, dp, lease := testPlane(t, DefaultInferOptions())
	rec := mustRecord(t, dp, lease.ID)
	// Keep resizing while the lease is released; the loop stops at the
	// first error (the record released, or gone).
	landed, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; dp.Resize(lease.ID) == nil; n++ {
			if n == 0 {
				close(landed)
			}
		}
	}()
	// Release only after at least one resize landed, so the loop is
	// provably mid-flight when the lease goes away.
	select {
	case <-landed:
	case <-done:
		t.Fatal("the first Resize failed")
	}
	if err := svc.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	<-done
	if recordEngine(dp, rec) != nil {
		t.Fatal("engine installed on a released record")
	}
	if _, ok := dp.Load(lease.ID); ok {
		t.Fatal("Load reports an engine for a released lease")
	}
	if err := dp.Resize(lease.ID); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("Resize on released lease: %v, want ErrUnknownLease", err)
	}

	small := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2}
	in := testInputs(small, 1)
	for _, arm := range []string{"release", "close"} {
		for i := 0; i < 20; i++ {
			s, p := svc, dp
			if arm == "close" { // a closed plane stays closed: one per iteration
				s, p, _ = testPlane(t, DefaultInferOptions())
			}
			l, err := s.Deploy(small)
			if err != nil {
				t.Fatal(err)
			}
			rec := mustRecord(t, p, l.ID)
			errs := make([]error, 3)
			var started, wg sync.WaitGroup
			for g := range errs {
				started.Add(1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					started.Done()
					_, errs[g] = p.InferAs("", l.ID, in)
				}()
			}
			// Even iterations end the lease as the first lookups run, so the
			// end lands before or during the build; odd ones once the engine
			// serves (the build is the callers' one, done here if none of
			// them has got to it yet).
			if i%2 == 0 {
				started.Wait()
			} else if _, err := p.engine(rec); err != nil {
				t.Fatal(err)
			}
			if arm == "close" {
				p.Close()
			}
			if err := s.Release(l.ID); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil && !errors.Is(err, ErrLeaseClosing) && !errors.Is(err, ErrUnknownLease) {
					t.Fatalf("%s: first InferAs answered %v", arm, err)
				}
			}
			if recordEngine(p, rec) != nil {
				t.Fatalf("%s: engine installed on a released record", arm)
			}
		}
	}
}

// TestPrebuildLosesToLifecycle holds a background build to the lazy
// build's rules. With every build slot held, a Prebuild waits while
// Release, Close or a Resize lands first: once the slots free, its build
// installs nothing on the released record or the closed plane and never
// over the Resize's engine, and its join returns. Then Prebuild races
// Release and Close unheld.
func TestPrebuildLosesToLifecycle(t *testing.T) {
	small := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2}
	in := testInputs(small, 1)
	for _, arm := range []string{"release", "close", "resize"} {
		svc, dp, _ := testPlane(t, DefaultInferOptions())
		l, err := svc.Deploy(small)
		if err != nil {
			t.Fatal(err)
		}
		rec := mustRecord(t, dp, l.ID)
		for range cap(dp.builds) {
			dp.builds <- struct{}{}
		}
		var wg sync.WaitGroup
		dp.Prebuild(l.ID, &wg)
		var resized *contEngine
		switch arm {
		case "release":
			err = svc.Release(l.ID)
		case "close":
			dp.Close()
		case "resize":
			err = dp.Resize(l.ID)
			resized = recordEngine(dp, rec)
		}
		if err != nil {
			t.Fatal(err)
		}
		for range cap(dp.builds) {
			<-dp.builds
		}
		wg.Wait()
		if e := recordEngine(dp, rec); e != resized {
			t.Errorf("%s first: the prebuild left engine %p on the record, want %p", arm, e, resized)
		}
		_, err = dp.InferAs("", l.ID, in)
		want := map[string]error{"release": ErrUnknownLease, "close": ErrLeaseClosing, "resize": nil}[arm]
		if !errors.Is(err, want) {
			t.Errorf("%s first: InferAs answered %v, want %v", arm, err, want)
		}
	}

	for _, arm := range []string{"release", "close"} {
		for i := 0; i < 20; i++ {
			svc, dp, _ := testPlane(t, DefaultInferOptions())
			l, err := svc.Deploy(small)
			if err != nil {
				t.Fatal(err)
			}
			rec := mustRecord(t, dp, l.ID)
			var wg sync.WaitGroup
			dp.Prebuild(l.ID, &wg)
			if i%2 == 1 { // odd iterations end the lease once the build is in
				wg.Wait()
			}
			if arm == "close" {
				dp.Close()
			}
			if err := svc.Release(l.ID); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if recordEngine(dp, rec) != nil {
				t.Fatalf("%s: engine installed on a released record", arm)
			}
			if _, err := dp.InferAs("", l.ID, in); !errors.Is(err, ErrUnknownLease) {
				t.Fatalf("%s: InferAs on the released lease answered %v, want ErrUnknownLease", arm, err)
			}
		}
	}
}

// weightTable reads the data plane's weight table as the plane does, under
// the service lock: how many sets it holds.
func weightTable(dp *DataPlane) int {
	dp.svc.mu.RLock()
	defer dp.svc.mu.RUnlock()
	return len(dp.svc.weights)
}

// TestReplicasShareWeights: a replica, and a replica of it, answer the same
// inputs bit-identically to their source, on one kernel and one tile set
// that none of their machines quantized; a lease of the same layer that
// replicates nothing answers differently. The table drops a set with its
// last lease: releasing the source keeps the set for its replicas, and a
// replica deployed after that still serves the source's model.
func TestReplicasShareWeights(t *testing.T) {
	svc, dp, src := testPlane(t, DefaultInferOptions())
	deploy := func(of int) *Lease {
		t.Helper()
		l, err := svc.DeployWith(src.Spec, PlaceOptions{Replicates: of})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	rep, other := deploy(src.ID), deploy(0)
	repOfRep := deploy(rep.ID)
	in := testInputs(src.Spec, 3)
	answer := func(l *Lease) [][]float64 {
		t.Helper()
		res, err := dp.InferAs("", l.ID, in)
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	want := answer(src)
	for _, l := range []*Lease{rep, repOfRep} {
		if !reflect.DeepEqual(answer(l), want) {
			t.Errorf("replica %d answers differently from lease %d", l.ID, src.ID)
		}
	}
	if reflect.DeepEqual(answer(other), want) {
		t.Errorf("lease %d, no replica, answers as lease %d does", other.ID, src.ID)
	}
	set := mustRecord(t, dp, src.ID).weights
	for _, l := range []*Lease{rep, repOfRep} {
		e := dp.currentEngine(l.ID)
		if mustRecord(t, dp, l.ID).weights != set || e.kern != set.kern {
			t.Errorf("replica %d binds a weight set or kernel of its own", l.ID)
		}
		for _, cm := range e.machines {
			cm.mu.Lock()
			if n := cm.m.Stats().TileCacheMisses; n != 0 {
				t.Errorf("replica %d: a machine quantized %d tiles, want 0", l.ID, n)
			}
			cm.mu.Unlock()
		}
	}
	if n := weightTable(dp); n != 2 {
		t.Fatalf("weight table holds %d sets, want 2", n)
	}

	for _, l := range []*Lease{src, rep} {
		if err := svc.Release(l.ID); err != nil {
			t.Fatal(err)
		}
	}
	late := deploy(repOfRep.ID)
	if !reflect.DeepEqual(answer(late), want) {
		t.Errorf("replica %d of lease %d, deployed after its source's release, answers differently", late.ID, repOfRep.ID)
	}
	if n := weightTable(dp); n != 2 {
		t.Errorf("weight table holds %d sets with the source released, want 2", n)
	}
	for _, l := range []*Lease{repOfRep, late, other} {
		if err := svc.Release(l.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n := weightTable(dp); n != 0 {
		t.Errorf("weight table holds %d sets after the last lease's release, want 0", n)
	}
}

// TestReplicaRefused: a deploy may replicate only a live lease of its own
// tenant and layer. Another tenant's lease, another layer's, an unknown or
// released one are refused at deploy, all alike (another tenant's lease is
// not told apart from none), and nothing is admitted.
func TestReplicaRefused(t *testing.T) {
	svc, _, _ := testPlane(t, DefaultInferOptions())
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2}
	alice, err := svc.DeployWith(spec, PlaceOptions{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := svc.DeployWith(spec, PlaceOptions{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Release(gone.ID); err != nil {
		t.Fatal(err)
	}
	before := svc.Status().ActiveLeases
	for _, c := range []struct {
		name   string
		spec   kernels.LayerSpec
		tenant string
		of     int
	}{
		{"another tenant's lease", spec, "bob", alice.ID},
		{"an anonymous deploy of a tenant's lease", spec, "", alice.ID},
		{"another layer's lease", kernels.LayerSpec{Kind: kernels.GRU, Hidden: 64, TimeSteps: 2}, "alice", alice.ID},
		{"a released lease", spec, "alice", gone.ID},
		{"an unknown lease", spec, "alice", 9999},
	} {
		if l, err := svc.DeployWith(c.spec, PlaceOptions{Tenant: c.tenant, Replicates: c.of}); !errors.Is(err, ErrUnknownLease) {
			t.Errorf("replica of %s: %v, %v; want ErrUnknownLease", c.name, l, err)
		}
	}
	if n := svc.Status().ActiveLeases; n != before {
		t.Errorf("refused replicas left %d leases, want %d", n, before)
	}
	if _, err := svc.DeployWith(spec, PlaceOptions{Tenant: "alice", Replicates: alice.ID}); err != nil {
		t.Errorf("replica of alice's own lease: %v", err)
	}
}
