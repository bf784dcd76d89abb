package rms

import (
	"errors"
	"expvar"
	"fmt"
	"sync"
	"testing"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/tenant"
)

func quotaRegistry(t *testing.T, tenants ...tenant.Tenant) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(tenants...)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestDeployQuotaLeases(t *testing.T) {
	svc := newService(t)
	svc.SetTenants(quotaRegistry(t,
		tenant.Tenant{ID: "small", Key: "k", Quotas: tenant.Quotas{MaxLeases: 2}},
	))
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 2}

	before := metrics.Snapshot()
	for i := 0; i < 2; i++ {
		if _, err := svc.DeployWith(spec, PlaceOptions{Tenant: "small"}); err != nil {
			t.Fatalf("deploy %d within quota: %v", i, err)
		}
	}
	_, err := svc.DeployWith(spec, PlaceOptions{Tenant: "small"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third deploy: %v, want ErrQuotaExceeded", err)
	}
	if got := metrics.Snapshot().Sub(before).Tenant(metrics.TenantRejections, "small"); got != 1 {
		t.Fatalf("rejection counter delta = %d, want 1", got)
	}

	// The cluster has plenty of room: an unconstrained tenant still fits.
	if _, err := svc.DeployWith(spec, PlaceOptions{Tenant: ""}); err != nil {
		t.Fatalf("anonymous deploy after quota rejection: %v", err)
	}
}

func TestDeployQuotaBlocksAndDevices(t *testing.T) {
	svc := newService(t)
	svc.SetTenants(quotaRegistry(t,
		tenant.Tenant{ID: "narrow", Key: "k", Quotas: tenant.Quotas{MaxDevices: 1}},
		tenant.Tenant{ID: "thin", Key: "k", Quotas: tenant.Quotas{MaxBlocks: 1}},
	))
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 2}

	// A 256-LSTM fits one device, so MaxDevices=1 admits it.
	l, err := svc.DeployWith(spec, PlaceOptions{Tenant: "narrow"})
	if err != nil {
		t.Fatalf("single-device deploy: %v", err)
	}
	if len(l.Placements) != 1 {
		t.Fatalf("placements = %d, want 1", len(l.Placements))
	}
	// The second single-device lease would exceed the device quota.
	if _, err := svc.DeployWith(spec, PlaceOptions{Tenant: "narrow"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-device deploy: %v, want ErrQuotaExceeded", err)
	}
	// A deployment always needs more than one block: MaxBlocks=1 can
	// never admit anything.
	if _, err := svc.DeployWith(spec, PlaceOptions{Tenant: "thin"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("block-starved deploy: %v, want ErrQuotaExceeded", err)
	}

	leases, devices, blocks := svc.TenantUsage("narrow")
	if leases != 1 || devices != 1 || blocks != l.Placements[0].Blocks {
		t.Fatalf("TenantUsage = (%d,%d,%d), want (1,1,%d)", leases, devices, blocks, l.Placements[0].Blocks)
	}
}

func TestDeployUnknownTenant(t *testing.T) {
	svc := newService(t)
	svc.SetTenants(quotaRegistry(t, tenant.Tenant{ID: "a", Key: "k"}))
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 2}
	assertGhostsShareOneKey(t, func(ghost string) error {
		_, err := svc.DeployWith(spec, PlaceOptions{Tenant: ghost})
		return err
	})
}

// assertGhostsShareOneKey calls op under 1,000 distinct unregistered
// tenant ids: each must be refused with ErrUnknownTenant, and all of them
// must be counted under the one key "unknown" — the id is the caller's
// word, and a key added to an expvar map stays for the life of the process.
func assertGhostsShareOneKey(t *testing.T, op func(ghost string) error) {
	t.Helper()
	keys := func() map[string]bool {
		seen := map[string]bool{}
		for _, m := range []*expvar.Map{metrics.TenantRequests, metrics.TenantRejections} {
			m.Do(func(kv expvar.KeyValue) { seen[kv.Key] = true })
		}
		return seen
	}
	before, base := keys(), metrics.Snapshot()
	const ghosts = 1000
	for i := 0; i < ghosts; i++ {
		if err := op(fmt.Sprintf("ghost-%d", i)); !errors.Is(err, ErrUnknownTenant) {
			t.Fatalf("as unknown tenant: %v, want ErrUnknownTenant", err)
		}
	}
	for k := range keys() {
		if !before[k] && k != "unknown" {
			t.Fatalf("unregistered id %q became a counter key", k)
		}
	}
	moved := metrics.Snapshot().Sub(base)
	for _, m := range []*expvar.Map{metrics.TenantRequests, metrics.TenantRejections} {
		if got := moved.Tenant(m, "unknown"); got != ghosts {
			t.Errorf("%d of %d refusals counted under \"unknown\"", got, ghosts)
		}
	}
}

func TestMigrateRespectsQuotaButAllowsEvacuation(t *testing.T) {
	svc := newService(t)
	svc.SetTenants(quotaRegistry(t,
		tenant.Tenant{ID: "cap", Key: "k", Quotas: tenant.Quotas{MaxDevices: 1}},
	))
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 2}
	l, err := svc.DeployWith(spec, PlaceOptions{Tenant: "cap", Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Same-depth migration (an evacuation) keeps usage flat: must pass
	// even at the quota ceiling.
	from := l.Placements[0].FPGA
	if _, err := svc.Migrate(l.ID, 1, func(id int) bool { return id == from }, false, nil); err != nil {
		t.Fatalf("same-depth migration at quota ceiling: %v", err)
	}
	// Scaling up to two devices breaches MaxDevices=1.
	depths, err := svc.depths(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDeeper := 0
	for _, d := range depths {
		if d > 1 {
			wantDeeper = d
			break
		}
	}
	if wantDeeper == 0 {
		t.Skip("database offers no deeper deployment for this layer")
	}
	if _, err := svc.Migrate(l.ID, wantDeeper, nil, false, nil); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("scale-up past device quota: %v, want ErrQuotaExceeded", err)
	}
}

func TestInferAsInFlightCap(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 2
	svc, dp, lease := testPlane(t, opts)
	reg := quotaRegistry(t,
		tenant.Tenant{ID: "capped", Key: "k", Quotas: tenant.Quotas{MaxInFlight: 2}},
	)
	svc.SetTenants(reg)
	dp.SetTenants(reg)
	inputs := testInputs(lease.Spec, 7)

	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			if _, err := dp.InferAs("capped", lease.ID, inputs); err != nil {
				t.Errorf("in-cap infer: %v", err)
			}
		}()
	}
	// Occupy both in-flight slots, then probe the third. Nothing was
	// admitted yet, so the stripe has no table.
	st := dp.stripe("capped")
	st.mu.Lock()
	fresh := st.n == nil
	st.n = map[string]int{"capped": 2}
	st.mu.Unlock()
	if !fresh {
		t.Fatal("the stripe has an in-flight table before any admission")
	}
	before := metrics.Snapshot()
	if _, err := dp.InferAs("capped", lease.ID, inputs); !errors.Is(err, ErrTenantBusy) {
		t.Fatalf("over-cap infer: %v, want ErrTenantBusy", err)
	}
	if got := metrics.Snapshot().Sub(before).Tenant(metrics.TenantRejections, "capped"); got != 1 {
		t.Fatalf("rejection delta = %d, want 1", got)
	}
	st.mu.Lock()
	st.n["capped"] = 0
	st.mu.Unlock()
	close(release)
	wg.Wait()

	// All requests answered: the in-flight table must be empty again and
	// the served counter must cover both successes.
	left := 0
	for i := range dp.inflight {
		dp.inflight[i].mu.Lock()
		left += len(dp.inflight[i].n)
		dp.inflight[i].mu.Unlock()
	}
	if left != 0 {
		t.Fatalf("inflight table has %d stale entries", left)
	}
}

func TestInferAsUnknownTenant(t *testing.T) {
	svc, dp, lease := testPlane(t, DefaultInferOptions())
	reg := quotaRegistry(t, tenant.Tenant{ID: "a", Key: "k"})
	svc.SetTenants(reg)
	dp.SetTenants(reg)
	in := testInputs(lease.Spec, 1)
	assertGhostsShareOneKey(t, func(ghost string) error {
		_, err := dp.InferAs(ghost, lease.ID, in)
		return err
	})
}

func TestInferAsCountsTenantMetrics(t *testing.T) {
	svc, dp, lease := testPlane(t, DefaultInferOptions())
	reg := quotaRegistry(t, tenant.Tenant{ID: "meter", Key: "k", Class: tenant.Batch})
	svc.SetTenants(reg)
	dp.SetTenants(reg)

	before := metrics.Snapshot()
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := dp.InferAs("meter", lease.ID, testInputs(lease.Spec, int64(i))); err != nil {
			t.Fatalf("infer %d: %v", i, err)
		}
	}
	moved := metrics.Snapshot().Sub(before)
	delta := func(m *expvar.Map) int64 { return moved.Tenant(m, "meter") }
	if got := delta(metrics.TenantRequests); got != n {
		t.Errorf("requests delta = %d, want %d", got, n)
	}
	if got := delta(metrics.TenantServed); got != n {
		t.Errorf("served delta = %d, want %d", got, n)
	}
	if got := delta(metrics.TenantQueueDepth); got != 0 {
		t.Errorf("queue depth delta = %d, want 0 (all answered)", got)
	}
	if riders := delta(metrics.TenantBatchRiders); riders != n {
		t.Errorf("batch riders delta = %d, want %d", riders, n)
	}
	if batches := delta(metrics.TenantBatches); batches < 1 || batches > n {
		t.Errorf("batches delta = %d, want 1..%d", batches, n)
	}
}

func TestLeaseCarriesTenant(t *testing.T) {
	svc := newService(t)
	svc.SetTenants(quotaRegistry(t, tenant.Tenant{ID: "owner", Key: "k"}))
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 2}
	l, err := svc.DeployWith(spec, PlaceOptions{Tenant: "owner"})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := svc.Lease(l.ID)
	if !ok || got.Tenant != "owner" {
		t.Fatalf("lease tenant = %q, want owner", got.Tenant)
	}
}

func TestQuotaUnenforcedWithoutRegistry(t *testing.T) {
	svc := newService(t)
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 2}
	// A tenant id without a registry is label-only: no lookup, no quota.
	l, err := svc.DeployWith(spec, PlaceOptions{Tenant: "whoever"})
	if err != nil {
		t.Fatal(err)
	}
	if l.Tenant != "whoever" {
		t.Fatalf("lease tenant = %q", l.Tenant)
	}
}

// TestSubmitShedsAtQueueBound asserts engine backpressure surfaces as
// ErrBusy when the fair queue hits its bound.
func TestSubmitShedsAtQueueBound(t *testing.T) {
	opts := DefaultInferOptions()
	opts.Machines = 1
	opts.MaxBatch = 1
	_, dp, lease := testPlane(t, opts)
	e, err := dp.engine(mustRecord(t, dp, lease.ID))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the queue past its bound without running a machine (set the
	// pending count directly): submit must shed with ErrBusy.
	e.pending.Store(int64(e.queueCap))
	req := shapedRequest(testInputs(lease.Spec, 1), "", 0)
	if err := e.submit(req); !errors.Is(err, ErrBusy) {
		t.Fatalf("submit at bound: %v, want ErrBusy", err)
	}
	e.pending.Store(0)
}

func mustRecord(t *testing.T, dp *DataPlane, id int) *leaseRecord {
	t.Helper()
	rec, _ := dp.record(id)
	if rec == nil {
		t.Fatalf("lease %d not found", id)
	}
	return rec
}
