package rms

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/resource"
)

// Regression test: Service.Release, the one release surface, must drain
// the lease's engine before freeing placements. Full-length requests resident in the one slot or waiting in
// the fair queue when Release lands must all be answered successfully by
// the time it returns, not left to race the deallocation.
func TestServiceReleaseDrainsDataPlane(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 1
	svc, dp, lease := preemptPlane(t, opts)
	e, err := dp.engine(mustRecord(t, dp, lease.ID))
	if err != nil {
		t.Fatal(err)
	}

	// Eight 16-step requests on one slot, submitted straight to the engine:
	// no caller drives it, so all eight wait when Release lands, and its
	// stopper alone serves them.
	reqs := make([]*inferRequest, 8)
	for i := range reqs {
		reqs[i] = shapedRequest(testInputs(lease.Spec, int64(7+i)), "", 0)
		if err := e.submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st, ok := dp.Load(lease.ID); !ok || st.Pending != len(reqs) {
		t.Fatalf("not all %d requests pending when Release lands: %+v, ok=%v", len(reqs), st, ok)
	}

	if err := svc.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		select {
		case <-req.done:
			if req.err != nil {
				t.Fatalf("request %d lost to release: %v", i, req.err)
			}
			if len(req.res.Outputs) != lease.Spec.TimeSteps {
				t.Errorf("request %d: drained infer returned %d outputs", i, len(req.res.Outputs))
			}
		default:
			t.Fatalf("request %d still unanswered after Release returned", i)
		}
	}
	if st := svc.Status(); st.ActiveLeases != 0 || st.Utilization != 0 {
		t.Errorf("after release: %d leases, utilization %v", st.ActiveLeases, st.Utilization)
	}
	if _, ok := dp.Load(lease.ID); ok {
		t.Error("engine still registered after Service.Release")
	}
}

func TestDeployWithDepth(t *testing.T) {
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	spec := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 256, TimeSteps: 2}

	depths, err := svc.depths(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(depths) < 3 || depths[0] != 1 {
		t.Fatalf("ladder = %v, want [1 2 4]", depths)
	}

	for _, d := range depths {
		lease, err := svc.DeployWith(spec, PlaceOptions{Depth: d})
		if err != nil {
			t.Fatalf("depth %d: %v", d, err)
		}
		if lease.Depth != d || len(lease.Placements) != d {
			t.Errorf("depth %d: got depth %d with %d placements", d, lease.Depth, len(lease.Placements))
		}
		seen := map[int]bool{}
		for _, pl := range lease.Placements {
			if seen[pl.FPGA] {
				t.Errorf("depth %d: device %d used twice", d, pl.FPGA)
			}
			seen[pl.FPGA] = true
		}
		if err := svc.Release(lease.ID); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := svc.DeployWith(spec, PlaceOptions{Depth: 3}); !errors.Is(err, ErrNoSuchDepth) {
		t.Errorf("depth 3: %v, want ErrNoSuchDepth", err)
	}

	// A per-call veto (Migrate's avoid) must keep placements off the device.
	lease, err := svc.DeployWith(spec, PlaceOptions{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if lease, err = svc.Migrate(lease.ID, 2, func(id int) bool { return id == 0 }, false, nil); err != nil {
		t.Fatal(err)
	}
	for _, pl := range lease.Placements {
		if pl.FPGA == 0 {
			t.Error("placement landed on avoided device 0")
		}
	}
}

func TestPlacementFilterVetoes(t *testing.T) {
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 2}
	svc.SetPlacementFilter(func(id int) bool { return id != 1 })
	lease, err := svc.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range lease.Placements {
		if pl.FPGA == 1 {
			t.Error("placement landed on filtered device 1")
		}
	}
	// Veto everything: capacity error, typed for the 503 mapping.
	svc.SetPlacementFilter(func(int) bool { return false })
	if _, err := svc.Deploy(spec); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("all-vetoed deploy: %v, want ErrNoCapacity", err)
	}
}

func TestMigrateAcrossDepths(t *testing.T) {
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	spec := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 256, TimeSteps: 2}
	lease, err := svc.DeployWith(spec, PlaceOptions{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := lease.ID
	baseline := svc.Status().Utilization

	up, err := svc.Migrate(id, 2, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if up.ID != id || up.Depth != 2 || len(up.Placements) != 2 || up.Migrations != 1 {
		t.Errorf("after scale-up: %+v", up)
	}

	down, err := svc.Migrate(id, 1, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if down.Depth != 1 || len(down.Placements) != 1 || down.Migrations != 2 {
		t.Errorf("after scale-down: %+v", down)
	}
	if got := svc.Status().Utilization; got != baseline {
		t.Errorf("utilization %v after round-trip migration, want %v", got, baseline)
	}

	if _, err := svc.Migrate(id, 3, nil, false, nil); !errors.Is(err, ErrNoSuchDepth) {
		t.Errorf("migrate to depth 3: %v, want ErrNoSuchDepth", err)
	}
	if _, err := svc.Migrate(9999, 1, nil, false, nil); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("migrate unknown lease: %v, want ErrUnknownLease", err)
	}

	// A migration that cannot place (every device vetoed) must fail with
	// ErrNoCapacity and — even when forced — leave the lease placed
	// exactly as before.
	before, _ := svc.Lease(id)
	all := func(int) bool { return true }
	if _, err := svc.Migrate(id, 2, all, false, nil); !errorsIsCapacity(err) {
		t.Errorf("vetoed migrate: %v, want ErrNoCapacity", err)
	}
	if _, err := svc.Migrate(id, 2, all, true, nil); !errorsIsCapacity(err) {
		t.Errorf("forced vetoed migrate: %v, want ErrNoCapacity", err)
	}
	after, ok := svc.Lease(id)
	if !ok || len(after.Placements) != len(before.Placements) || after.Placements[0] != before.Placements[0] {
		t.Errorf("failed forced migration did not restore placements: %+v vs %+v", after, before)
	}
}

func errorsIsCapacity(err error) bool { return errors.Is(err, ErrNoCapacity) }

// Migration must avoid a named device even when force-releasing first —
// the evacuation path for dead devices.
func TestForcedMigrationEvacuatesDevice(t *testing.T) {
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	spec := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 256, TimeSteps: 2}
	lease, err := svc.DeployWith(spec, PlaceOptions{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	dead := lease.Placements[0].FPGA
	avoid := func(id int) bool { return id == dead }
	moved, err := svc.Migrate(lease.ID, 1, avoid, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range moved.Placements {
		if pl.FPGA == dead {
			t.Errorf("evacuated lease still on dead device %d", dead)
		}
	}
}

func TestDataPlaneResize(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	_, dp, lease := testPlane(t, opts)
	inputs := testInputs(lease.Spec, 11)
	want, err := dp.InferAs("", lease.ID, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := dp.Load(lease.ID); st.Machines != 1 {
		t.Fatalf("machines = %d, want 1", st.Machines)
	}
	deepen(t, dp, lease.ID)
	if err := dp.Resize(lease.ID); err != nil {
		t.Fatal(err)
	}
	got, err := dp.InferAs("", lease.ID, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Outputs) != len(want.Outputs) {
		t.Fatal("resize changed output shape")
	}
	for ti := range got.Outputs {
		for i := range got.Outputs[ti] {
			if got.Outputs[ti][i] != want.Outputs[ti][i] {
				t.Fatal("resize changed inference results")
			}
		}
	}
	st, ok := dp.Load(lease.ID)
	if !ok || st.Machines != 2 {
		t.Errorf("after resize: %+v ok=%v, want 2 machines", st, ok)
	}
	if st.Served != 1 {
		t.Errorf("new engine served = %d, want 1", st.Served)
	}
	if err := dp.Resize(9999); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("resize unknown lease: %v", err)
	}
}

// TestResizeQuantizesNothing: a Resize binds the lease's weight set and
// quantizes no tile. The new engine's machines, twice as many after a
// migration to depth 2, report no tile-cache miss before they serve and
// after, and answer as the old engine did.
func TestResizeQuantizesNothing(t *testing.T) {
	_, dp, lease := testPlane(t, DefaultInferOptions())
	inputs := testInputs(lease.Spec, 5)
	want, err := dp.InferAs("", lease.ID, inputs)
	if err != nil {
		t.Fatal(err)
	}
	deepen(t, dp, lease.ID)
	if err := dp.Resize(lease.ID); err != nil {
		t.Fatal(err)
	}
	misses := func() (n int64) {
		e := dp.currentEngine(lease.ID)
		for _, cm := range e.machines {
			cm.mu.Lock()
			n += cm.m.Stats().TileCacheMisses
			cm.mu.Unlock()
		}
		return n
	}
	if n := misses(); n != 0 {
		t.Errorf("the resized engine's machines quantized %d tiles, want 0", n)
	}
	got, err := dp.InferAs("", lease.ID, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Error("the resized engine answers differently")
	}
	if n, st := misses(), got.BatchStats; n != 0 || st.TileCacheMisses != 0 {
		t.Errorf("after serving: %d misses on the machines, %d in the request's stats; want 0", n, st.TileCacheMisses)
	}
}

// BenchmarkResize: an idle LSTM h=256 t=8 lease, served by two machines at
// depth 1, resized to the four of depth 2. The migrations, and the way
// back, run off the clock.
func BenchmarkResize(b *testing.B) {
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		b.Fatal(err)
	}
	lease, err := svc.DeployWith(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 8}, PlaceOptions{Depth: 1})
	if err != nil {
		b.Fatal(err)
	}
	dp := NewDataPlane(svc, DefaultInferOptions())
	defer dp.Close()
	migrate := func(depth int) {
		if _, err := svc.Migrate(lease.ID, depth, nil, false, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := dp.Resize(lease.ID); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		migrate(2)
		b.StartTimer()
		if err := dp.Resize(lease.ID); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		migrate(1)
		if err := dp.Resize(lease.ID); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// TestFirstBuildFollowsDepth: a lease deployed two pieces deep runs
// Machines machines per piece from its first request on, not only after
// a Resize.
func TestFirstBuildFollowsDepth(t *testing.T) {
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	lease, err := svc.DeployWith(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 2}, PlaceOptions{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultInferOptions()
	dp := NewDataPlane(svc, opts)
	t.Cleanup(dp.Close)
	if _, err := dp.InferAs("", lease.ID, testInputs(lease.Spec, 1)); err != nil {
		t.Fatal(err)
	}
	if st, ok := dp.Load(lease.ID); !ok || st.Machines != 2*opts.Machines {
		t.Errorf("first build at depth 2: %+v ok=%v, want %d machines", st, ok, 2*opts.Machines)
	}
}

// Capacity exhaustion over HTTP must answer 503 (load balancers retry
// elsewhere), never 500 (bugs).
func TestDeployCapacity503(t *testing.T) {
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(testHandler(t, svc))
	defer srv.Close()

	body := `{"kind":"LSTM","hidden":1024,"timesteps":4}`
	saw503 := false
	for i := 0; i < 64; i++ {
		resp, err := http.Post(srv.URL+"/deploy", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			continue
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("deploy %d: status %d, want 503", i, resp.StatusCode)
		}
		saw503 = true
		break
	}
	if !saw503 {
		t.Fatal("cluster never filled up — test layer too small")
	}
}

func TestExpvarOnMux(t *testing.T) {
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(testHandler(t, svc))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars: %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"mlv_leases_active", "mlv_infers_served", "mlv_batches_flushed",
		"mlv_migrations", "mlv_heartbeat_misses", "mlv_devices_condemned",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("expvar %q missing from /debug/vars (have %s)", key, strings.Join(keysOf(vars), ","))
		}
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestFeasibleDepths(t *testing.T) {
	svc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 10}
	all, err := svc.depths(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	feasible, err := svc.FeasibleDepths(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The database offers a depth-4 deployment (4×XCVU37P), but the paper
	// cluster has only three of that type: the rung exists on paper, not
	// in the fleet.
	if len(all) != 3 || all[2] != 4 {
		t.Fatalf("Depths = %v, want [1 2 4]", all)
	}
	if len(feasible) != 2 || feasible[0] != 1 || feasible[1] != 2 {
		t.Fatalf("FeasibleDepths = %v, want [1 2]", feasible)
	}

	wide, err := NewService(resource.ClusterSpec{resource.XCVU37P.Name: 4}, testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	feasible, err = wide.FeasibleDepths(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(feasible) != 3 {
		t.Fatalf("FeasibleDepths on 4-wide cluster = %v, want [1 2 4]", feasible)
	}
}
