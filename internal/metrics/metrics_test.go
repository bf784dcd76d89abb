package metrics

import (
	"expvar"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func keys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRegistryMatchesExpvar: every mlv_ variable the process exports was
// declared through the registry exactly once, and every declaration is
// exported.
func TestRegistryMatchesExpvar(t *testing.T) {
	declared := map[string]int{}
	for _, d := range registry {
		declared[d.name]++
	}
	for name, n := range declared {
		if n != 1 {
			t.Errorf("%s declared %d times", name, n)
		}
	}
	expvar.Do(func(kv expvar.KeyValue) {
		if !strings.HasPrefix(kv.Key, "mlv_") {
			return
		}
		if declared[kv.Key] == 0 {
			t.Errorf("%s is exported but not in the registry", kv.Key)
		}
		delete(declared, kv.Key)
	})
	for name := range declared {
		t.Errorf("%s is in the registry but not exported", name)
	}
	if len(registry) != 41 {
		t.Errorf("%d declarations, want 41", len(registry))
	}
}

// TestFamilyKeySets pins the two key sets the frozen benchmark reads and
// the third that, with them, makes up the 19 counters scenario reports
// embed (simtest.Stack.CounterDeltas).
func TestFamilyKeySets(t *testing.T) {
	if got, want := keys(Counters()), []string{
		"mlv_batches_flushed", "mlv_devices_condemned", "mlv_heartbeat_misses",
		"mlv_infers_served", "mlv_leases_active", "mlv_migration_failures", "mlv_migrations",
	}; !reflect.DeepEqual(got, want) {
		t.Errorf("Counters() keys %v, want %v", got, want)
	}
	if got, want := keys(SlotCounters()), []string{
		"mlv_admissions", "mlv_admissions_into_running", "mlv_slot_round_occupancy",
		"mlv_slot_rounds", "mlv_slots_active",
	}; !reflect.DeepEqual(got, want) {
		t.Errorf("SlotCounters() keys %v, want %v", got, want)
	}
	if got, want := keys(Snapshot().Family(SnapshotFamily)), []string{
		"mlv_defrag_moves", "mlv_preempt_evictions", "mlv_preempt_requests", "mlv_preempt_restores",
		"mlv_snapshot_bytes", "mlv_snapshot_captures", "mlv_snapshot_restores",
	}; !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot family keys %v, want %v", got, want)
	}
}

func TestSnapshotSub(t *testing.T) {
	base := Snapshot()
	Migrations.Add(3)
	TenantRequests.Add("metrics-test", 2)
	d := Snapshot().Sub(base)
	if got := d.Int(Migrations); got != 3 {
		t.Errorf("Migrations delta %d, want 3", got)
	}
	if got := d.Tenant(TenantRequests, "metrics-test"); got != 2 {
		t.Errorf("TenantRequests delta %d, want 2", got)
	}
	if got := d.Tenant(TenantServed, "metrics-test"); got != 0 {
		t.Errorf("untouched map delta %d, want 0", got)
	}
	if got := d.Family(ServingFamily)["mlv_migrations"]; got != 3 {
		t.Errorf("family view of the delta %d, want 3", got)
	}
}

// TestReadRefills: Read reuses a Values' storage without carrying anything
// over. A refilled reading equals a fresh Snapshot, a tenant key gone from
// its map is gone from the reading, and a steady-state refill allocates
// nothing.
func TestReadRefills(t *testing.T) {
	TenantServed.Add("metrics-stale", 1)
	var v Values
	v.Read()
	TenantServed.Delete("metrics-stale")
	Migrations.Add(1)
	v.Read()
	if !reflect.DeepEqual(v, Snapshot()) {
		t.Error("refilled reading differs from a fresh Snapshot")
	}
	if _, ok := v.tenants[tenantKey{TenantServed, "metrics-stale"}]; ok {
		t.Error("refilled reading kept a deleted tenant key")
	}
	if n := testing.AllocsPerRun(10, v.Read); n != 0 {
		t.Errorf("Read allocates %v times on a warm Values, want 0", n)
	}
}

// TestQuotaHeadroom: the mlv_tenant_quota_headroom expvar renders the
// installed callback's view, and reinstalling the previous callback
// restores the previous rendering.
func TestQuotaHeadroom(t *testing.T) {
	v := expvar.Get("mlv_tenant_quota_headroom")
	prev, _ := quotaHeadroom.Load().(func() any)
	before := v.String()
	SetQuotaHeadroom(func() any {
		return map[string]map[string]int{"alice": {"leases_used": 1, "leases_free": 2}}
	})
	if got, want := v.String(), `{"alice":{"leases_free":2,"leases_used":1}}`; got != want {
		t.Errorf("headroom renders %s, want %s", got, want)
	}
	SetQuotaHeadroom(prev)
	if got := v.String(); got != before {
		t.Errorf("after restoring the previous callback the headroom renders %s, want %s", got, before)
	}
}
