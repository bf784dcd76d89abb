package rms

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mlvfpga/internal/artifactstore"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/resource"
)

func cacheTestSpec() kernels.LayerSpec {
	return kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 2}
}

// newCachedService builds a service with the warm-start compile path over
// the given store.
func newCachedService(t *testing.T, cluster resource.ClusterSpec, store *artifactstore.Store) (*Service, *Compiler) {
	t.Helper()
	svc, err := NewService(cluster, testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	comp := NewCompiler(store, CompilerOptions{})
	svc.SetCompiler(comp)
	return svc, comp
}

func TestDeployWarmStart(t *testing.T) {
	store := artifactstore.NewMemory(artifactstore.Options{})
	svc, _ := newCachedService(t, resource.PaperCluster(), store)
	spec := cacheTestSpec()

	cold, err := svc.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmDeploy {
		t.Fatal("first deploy reported warm against a cold cache")
	}
	if cold.ArtifactKey == "" {
		t.Fatal("deploy recorded no artifact key")
	}
	warm, err := svc.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmDeploy {
		t.Fatal("second deploy of a known design missed the cache")
	}
	if warm.ArtifactKey != cold.ArtifactKey {
		t.Fatalf("artifact keys differ: %s vs %s", warm.ArtifactKey, cold.ArtifactKey)
	}
	// The hit path must perform zero decompose/partition/HS-compile work.
	if st := store.Stats(); st.Computes != 1 || st.Hits < 1 {
		t.Fatalf("stats = %+v, want exactly one compile and a hit", st)
	}
}

// TestWarmEnsureAllocatesNothing pins the warm-deploy lookup: once a
// spec's artifact is ensured, its plan key and a repeat Ensure come from
// the plan memo and the store's memory tier without allocating.
func TestWarmEnsureAllocatesNothing(t *testing.T) {
	comp := NewCompiler(artifactstore.NewMemory(artifactstore.Options{}), CompilerOptions{})
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2}
	art, key, warm, err := comp.Ensure(spec)
	if err != nil || warm {
		t.Fatalf("cold Ensure: warm=%v, err %v", warm, err)
	}
	n := testing.AllocsPerRun(100, func() {
		pk, _ := comp.PlanKey(spec)
		got, k, warm, err := comp.Ensure(spec)
		if pk != key || k != key || got != art || !warm || err != nil {
			t.Fatalf("warm lookup: key %s/%s (want %s), warm=%v, err %v", pk, k, key, warm, err)
		}
	})
	if n != 0 {
		t.Errorf("a warm PlanKey and Ensure allocate %v times, want 0", n)
	}
}

func TestDeployUndeployableWithCompiler(t *testing.T) {
	store := artifactstore.NewMemory(artifactstore.Options{})
	svc, _ := newCachedService(t, resource.PaperCluster(), store)
	// LSTM h=8192 is too large for the whole cluster, so the error path
	// must surface before any compile is attempted.
	if _, err := svc.Deploy(kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 8192, TimeSteps: 1}); err == nil {
		t.Fatal("undeployable layer deployed")
	}
	if st := store.Stats(); st.Computes != 0 {
		t.Fatalf("undeployable layer triggered a compile: %+v", st)
	}
}

// deterministicInputs derives a fixed input tensor for a spec.
func deterministicInputs(spec kernels.LayerSpec) [][]float64 {
	inputs := make([][]float64, spec.TimeSteps)
	for t := range inputs {
		x := make([]float64, spec.Hidden)
		for i := range x {
			x[i] = float64((t*31+i*7)%17)/16.0 - 0.5
		}
		inputs[t] = x
	}
	return inputs
}

// TestConcurrentDeploySingleflight is the satellite race test: 32
// goroutines deploy the same spec against a cold cache; exactly one
// compile runs (the store's singleflight guard), every deploy succeeds,
// and every lease serves outputs bit-identical to a compiler-less twin
// stack deployed with the same lease ids (per-lease weights derive from
// Seed + lease id, so the comparison is id-to-id).
func TestConcurrentDeploySingleflight(t *testing.T) {
	const deploys = 32
	cluster := resource.ClusterSpec{resource.XCVU37P.Name: deploys}
	spec := cacheTestSpec()

	store := artifactstore.NewMemory(artifactstore.Options{})
	svc, _ := newCachedService(t, cluster, store)

	var wg sync.WaitGroup
	leases := make([]*Lease, deploys)
	errs := make([]error, deploys)
	for i := 0; i < deploys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			leases[i], errs[i] = svc.Deploy(spec)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	st := store.Stats()
	if st.Computes != 1 {
		t.Fatalf("%d compiles for %d concurrent deploys, want exactly 1 (stats %+v)", st.Computes, deploys, st)
	}

	// Twin stack without a compiler: the reference data-plane behaviour.
	twinSvc, err := NewService(cluster, testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < deploys; i++ {
		if _, err := twinSvc.Deploy(spec); err != nil {
			t.Fatalf("twin deploy %d: %v", i, err)
		}
	}

	opts := InferOptions{MaxBatch: 1, Machines: 1, Tiles: 1, Seed: 7}
	dp := NewDataPlane(svc, opts)
	defer dp.Close()
	twin := NewDataPlane(twinSvc, opts)
	defer twin.Close()

	inputs := deterministicInputs(spec)
	for _, lease := range leases {
		got, err := dp.InferAs("", lease.ID, inputs)
		if err != nil {
			t.Fatalf("infer lease %d: %v", lease.ID, err)
		}
		want, err := twin.InferAs("", lease.ID, inputs)
		if err != nil {
			t.Fatalf("twin infer lease %d: %v", lease.ID, err)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) {
			t.Fatalf("lease %d outputs differ between cached and twin stacks", lease.ID)
		}
	}
}

// TestDeployCorruptBlobRecovery is the satellite corruption test at the
// deploy level: damage the stored blob, redeploy through a fresh stack,
// and require checksum rejection, a recompile fallback, a replaced blob —
// and a fully serving lease. Never a panic, never a wrong artifact.
func TestDeployCorruptBlobRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := cacheTestSpec()

	store1, err := artifactstore.Open(dir, artifactstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc1, _ := newCachedService(t, resource.PaperCluster(), store1)
	first, err := svc1.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}

	blobs, err := filepath.Glob(filepath.Join(dir, "*.mlva"))
	if err != nil || len(blobs) != 1 {
		t.Fatalf("blobs = %v (err %v), want exactly one", blobs, err)
	}
	corruptFile(t, blobs[0])

	store2, err := artifactstore.Open(dir, artifactstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc2, _ := newCachedService(t, resource.PaperCluster(), store2)
	lease, err := svc2.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if lease.WarmDeploy {
		t.Fatal("deploy against a corrupt blob reported warm")
	}
	if lease.ArtifactKey != first.ArtifactKey {
		t.Fatalf("artifact key changed after recovery: %s vs %s", lease.ArtifactKey, first.ArtifactKey)
	}
	st := store2.Stats()
	if st.CorruptDropped != 1 || st.Computes != 1 {
		t.Fatalf("stats = %+v, want one corrupt drop and one recompile", st)
	}

	// The bad entry was replaced: a third stack warm-starts from disk.
	store3, err := artifactstore.Open(dir, artifactstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc3, _ := newCachedService(t, resource.PaperCluster(), store3)
	healed, err := svc3.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !healed.WarmDeploy {
		t.Fatal("rewritten blob did not serve a warm deploy")
	}

	// The recovered lease serves.
	dp := NewDataPlane(svc2, InferOptions{MaxBatch: 1, Machines: 1, Tiles: 1, Seed: 7})
	defer dp.Close()
	if _, err := dp.InferAs("", lease.ID, deterministicInputs(spec)); err != nil {
		t.Fatalf("infer on recovered lease: %v", err)
	}
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWarmDeployTwinInferGolden is the acceptance golden test: a
// warm-deployed lease and a cold-deployed twin must return bit-identical
// end-to-end /infer payloads (modulo the wall-clock and batching
// observability fields, which are timing, not results).
func TestWarmDeployTwinInferGolden(t *testing.T) {
	spec := cacheTestSpec()
	inputs := deterministicInputs(spec)
	opts := InferOptions{MaxBatch: 1, Machines: 1, Tiles: 1, Seed: 5}

	// Warm stack: the store is pre-populated by a throwaway service, so
	// the lease under test is a pure cache-hit deploy.
	store := artifactstore.NewMemory(artifactstore.Options{})
	warmup, _ := newCachedService(t, resource.PaperCluster(), store)
	if _, err := warmup.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	warmSvc, _ := newCachedService(t, resource.PaperCluster(), store)
	warmDP := NewDataPlane(warmSvc, opts)
	defer warmDP.Close()

	// Cold twin: no compiler at all.
	coldSvc, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	coldDP := NewDataPlane(coldSvc, opts)
	defer coldDP.Close()

	infer := func(h http.Handler, deployBody string) (leaseID int, outputs [][]float64, warm bool) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/deploy", bytes.NewBufferString(deployBody)))
		if rec.Code != http.StatusOK {
			t.Fatalf("/deploy: %d %s", rec.Code, rec.Body)
		}
		var lease Lease
		if err := json.Unmarshal(rec.Body.Bytes(), &lease); err != nil {
			t.Fatal(err)
		}
		req := struct {
			ID     int         `json:"id"`
			Inputs [][]float64 `json:"inputs"`
		}{ID: lease.ID, Inputs: inputs}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewBuffer(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("/infer: %d %s", rec.Code, rec.Body)
		}
		var res InferResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		return lease.ID, res.Outputs, lease.WarmDeploy
	}

	deployBody := `{"kind":"LSTM","hidden":256,"timesteps":2}`
	warmID, warmOut, wasWarm := infer(warmDP.Handler(), deployBody)
	if !wasWarm {
		t.Fatal("lease under test was not a warm deploy")
	}
	coldID, coldOut, _ := infer(coldDP.Handler(), deployBody)
	if warmID != coldID {
		t.Fatalf("lease ids diverged (%d vs %d); weight derivation no longer comparable", warmID, coldID)
	}
	if !reflect.DeepEqual(warmOut, coldOut) {
		t.Fatal("warm-deployed lease and cold twin returned different /infer outputs")
	}
}
