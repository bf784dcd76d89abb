// Package metrics holds the process-wide expvar counters shared by the
// runtime manager's data plane and the cluster control plane, so operators
// and the control loop read one view. Every counter is declared exactly
// once — expvar name, variable and audited family — through declare, which
// publishes it (expvar panics on duplicate names) and records it in the
// package registry; the counters are exported on every serving mux under
// /debug/vars.
package metrics

import (
	"expvar"
	"sync/atomic"
)

// Family names the conservation model with which the deterministic
// simulation harness (internal/simtest) audits a counter; Unaudited ones
// are operator-facing only (timing-dependent gauges, streams abandoned
// at a drain deadline, HTTP-level shedding).
type Family string

const (
	Unaudited Family = ""
	// ServingFamily: lease, inference and migration counters, pinned
	// exactly by the harness's counter-conservation model.
	ServingFamily Family = "serving"
	// SlotFamily: continuous-batching counters (slot conservation).
	SlotFamily Family = "slot"
	// SnapshotFamily: checkpoint/restore counters — captures must be
	// matched by restores, evictions by preempt-restores.
	SnapshotFamily Family = "snapshot"
	// ArtifactFamily: the offline-compilation cache and the RTL
	// equivalence memo; asserted against artifactstore.Stats.
	ArtifactFamily Family = "artifact"
	// TenantFamily: the per-tenant maps, keyed by tenant id and checked
	// against the harness's per-tenant event model.
	TenantFamily Family = "tenant"
)

type decl struct {
	name   string
	family Family
	v      expvar.Var
}

var (
	registry []decl
	// index locates a declaration (and an Int's slot in Values.ints) by
	// variable, so callers never address a counter by name.
	index = map[expvar.Var]int{}
)

// declare publishes v under name and records the declaration.
func declare[V expvar.Var](name string, family Family, v V) V {
	expvar.Publish(name, v)
	switch any(v).(type) {
	case *expvar.Int, *expvar.Map: // an expvar.Func is not hashable, and nobody looks one up
		index[v] = len(registry)
	}
	registry = append(registry, decl{name, family, v})
	return v
}

// Name returns the expvar name a counter or per-tenant map was declared under.
func Name(v expvar.Var) string { return registry[index[v]].name }

func newInt(name string, family Family) *expvar.Int { return declare(name, family, new(expvar.Int)) }
func newTenantMap(name string) *expvar.Map          { return declare(name, TenantFamily, new(expvar.Map)) }

// Values is one reading of every registered counter. The counters are
// process-wide, so in a shared test binary only a difference (Sub) means
// anything.
type Values struct {
	ints    []int64 // by registry position
	tenants map[tenantKey]int64
}

type tenantKey struct {
	m  *expvar.Map
	id string
}

// Snapshot reads every registered counter and per-tenant map once.
func Snapshot() (v Values) { v.Read(); return v }

// Read refills s with a fresh reading of every counter, reusing its
// storage: a caller that reads once per event keeps one Values and
// allocates only for tenant keys it has not seen before.
func (s *Values) Read() {
	if s.tenants == nil { // the registry is complete once the package is initialized
		*s = Values{ints: make([]int64, len(registry)), tenants: map[tenantKey]int64{}}
	}
	clear(s.tenants)
	var m *expvar.Map // the map being walked; one closure serves all of them
	add := func(kv expvar.KeyValue) {
		if n, ok := kv.Value.(*expvar.Int); ok {
			s.tenants[tenantKey{m, kv.Key}] = n.Value()
		}
	}
	for i, d := range registry {
		switch v := d.v.(type) {
		case *expvar.Int:
			s.ints[i] = v.Value()
		case *expvar.Map:
			m = v
			v.Do(add)
		}
	}
}

func (s Values) Int(v *expvar.Int) int64 { return s.ints[index[v]] }

// Tenant reads one per-tenant map entry (0 if the tenant never touched it).
func (s Values) Tenant(m *expvar.Map, id string) int64 { return s.tenants[tenantKey{m, id}] }

// Sub subtracts base from s in place, counter by counter, and returns s
// (the receiver is normally a fresh reading, so nothing else sees it).
func (s Values) Sub(base Values) Values {
	for i := range s.ints {
		s.ints[i] -= base.ints[i]
	}
	for k := range s.tenants {
		s.tenants[k] -= base.tenants[k]
	}
	return s
}

// Family returns the family's Int counters by expvar name.
func (s Values) Family(f Family) map[string]int64 {
	out := map[string]int64{}
	for i, d := range registry {
		if _, ok := d.v.(*expvar.Int); ok && d.family == f {
			out[d.name] = s.ints[i]
		}
	}
	return out
}

// Counters and SlotCounters read one family by expvar name. They remain
// only for benchmark/probes.go and benchmark/trace.go; everything else
// reads Snapshot.
func Counters() map[string]int64     { return Snapshot().Family(ServingFamily) }
func SlotCounters() map[string]int64 { return Snapshot().Family(SlotFamily) }

var (
	// LeasesActive is a gauge of admitted deployments (+1 on Deploy,
	// -1 on Release).
	LeasesActive = newInt("mlv_leases_active", ServingFamily)
	// InfersServed counts answered inference requests.
	InfersServed = newInt("mlv_infers_served", ServingFamily)
	// BatchesFlushed counts fresh admission cohorts: one per fair-queue
	// take that put at least one new stream into a slot.
	BatchesFlushed = newInt("mlv_batches_flushed", ServingFamily)
	// Migrations counts lease re-placements (depth changes and
	// evacuations) performed by the cluster control plane.
	Migrations = newInt("mlv_migrations", ServingFamily)
	// MigrationFailures counts migration attempts that found no
	// capacity and went into backoff.
	MigrationFailures = newInt("mlv_migration_failures", ServingFamily)
	// HeartbeatMisses counts device health downgrades caused by missed
	// heartbeats (healthy→suspect and suspect→dead sweep transitions).
	HeartbeatMisses = newInt("mlv_heartbeat_misses", ServingFamily)
	// DevicesCondemned counts devices marked Dead on positive failure
	// evidence (an explicit ReportDead: /cluster/kill, or simtest's condemn
	// event) — kept separate from HeartbeatMisses so
	// operators can tell confirmed failures from timeouts.
	DevicesCondemned = newInt("mlv_devices_condemned", ServingFamily)
)

// Offline-compilation cache counters: the content-addressed artifact store
// (internal/artifactstore) and the equivalence oracle's memo
// (rtl.EquivChecker) export through the same /debug/vars page so online
// serving and offline caching are observable together.
var (
	// ArtifactHits counts artifact-store lookups served from cache
	// (memory LRU or validated disk blob).
	ArtifactHits = newInt("mlv_artifact_hits", ArtifactFamily)
	// ArtifactMisses counts lookups that found no usable artifact.
	ArtifactMisses = newInt("mlv_artifact_misses", ArtifactFamily)
	// ArtifactCompiles counts cold compiles the cache failed to absorb
	// (one per miss; singleflight followers add nothing).
	ArtifactCompiles = newInt("mlv_artifact_compiles", ArtifactFamily)
	// ArtifactEvictions counts artifacts dropped by the memory LRU or the
	// disk-bytes bound.
	ArtifactEvictions = newInt("mlv_artifact_evictions", ArtifactFamily)
	// ArtifactCorrupt counts blobs rejected by checksum/framing/decode
	// validation and deleted (each one falls back to a recompile).
	ArtifactCorrupt = newInt("mlv_artifact_corrupt", ArtifactFamily)
	// ArtifactDiskBytes gauges the bytes currently held in blob files.
	ArtifactDiskBytes = newInt("mlv_artifact_disk_bytes", ArtifactFamily)

	// EquivQueries counts rtl.EquivChecker.Equivalent calls.
	EquivQueries = newInt("mlv_equiv_queries", ArtifactFamily)
	// EquivStructuralHits counts queries decided by structural hashing
	// alone (no simulation considered).
	EquivStructuralHits = newInt("mlv_equiv_struct_hits", ArtifactFamily)
	// EquivCacheHits counts queries answered from the hash-pair memo.
	EquivCacheHits = newInt("mlv_equiv_cache_hits", ArtifactFamily)
	// EquivSimRuns counts memo misses that ran random-simulation
	// equivalence.
	EquivSimRuns = newInt("mlv_equiv_sim_runs", ArtifactFamily)
)

// Continuous-batching data-plane counters (SlotFamily: the simulation
// harness's slot-conservation model, see internal/simtest).
var (
	// SlotsActive gauges streams currently resident in batch slots
	// (+1 on admission, -1 when the slot is freed). At quiescence it must
	// return to its baseline: a persistent residue is a leaked slot.
	SlotsActive = newInt("mlv_slots_active", SlotFamily)
	// SlotRounds counts executed step rounds; SlotRoundOccupancy sums the
	// cohort size over those rounds, so occupancy/rounds is the mean
	// co-resident stream count (near MaxBatch when admission keeps the
	// slots full under load).
	SlotRounds         = newInt("mlv_slot_rounds", SlotFamily)
	SlotRoundOccupancy = newInt("mlv_slot_round_occupancy", SlotFamily)
	// Admissions counts streams admitted into slots;
	// AdmissionsIntoRunning counts the subset admitted into a machine
	// that already had live streams mid-flight.
	Admissions            = newInt("mlv_admissions", SlotFamily)
	AdmissionsIntoRunning = newInt("mlv_admissions_into_running", SlotFamily)
	// AdmissionWaitNS gauges the most recent per-engine EWMA of
	// queue-to-slot admission latency in nanoseconds.
	AdmissionWaitNS = newInt("mlv_admission_wait_ns", Unaudited)
)

// Checkpoint/restore counters: snapshot volume, preemptive scheduling
// and defragmentation (SnapshotFamily: captures from preemption must be
// matched by restores; see internal/simtest).
var (
	// SnapshotCaptures counts slot checkpoints taken (preemption and
	// transplant on resize);
	// SnapshotRestores counts checkpoints installed into a slot.
	SnapshotCaptures = newInt("mlv_snapshot_captures", SnapshotFamily)
	SnapshotRestores = newInt("mlv_snapshot_restores", SnapshotFamily)
	// SnapshotBytes sums the framed size (frame.Overhead + Slot.Bytes())
	// of every checkpoint captured.
	SnapshotBytes = newInt("mlv_snapshot_bytes", SnapshotFamily)
	// PreemptEvictions counts streams evicted mid-flight from a slot
	// (their checkpoints re-enter the fair queue as resume tokens);
	// PreemptRestores counts evicted streams re-admitted from a token.
	PreemptEvictions = newInt("mlv_preempt_evictions", SnapshotFamily)
	PreemptRestores  = newInt("mlv_preempt_restores", SnapshotFamily)
	// PreemptRequests counts explicit or automatic preemption triggers
	// (each may evict zero or more slots).
	PreemptRequests = newInt("mlv_preempt_requests", SnapshotFamily)
	// DrainAbandoned counts streams abandoned because a shutdown drain
	// deadline expired before they finished. Not part of the simtest
	// conservation model (the harness never deadline-drains).
	DrainAbandoned = newInt("mlv_drain_abandoned", Unaudited)
	// DefragRuns counts defragmentation planner invocations; DefragMoves
	// counts the checkpoint-migrations those runs performed.
	DefragRuns  = newInt("mlv_defrag_runs", Unaudited)
	DefragMoves = newInt("mlv_defrag_moves", SnapshotFamily)
)

// Multi-tenant serving counters. The per-tenant maps are keyed by tenant
// id (TenantFamily: the harness's per-tenant event model); the
// serving-path counters above stay tenant-blind.
var (
	// CapacityRejections counts HTTP requests shed for lack of capacity
	// (503 + Retry-After: deploy with no free blocks, serving queue full,
	// lease draining) so load-shedding is observable and clients can back
	// off.
	CapacityRejections = newInt("mlv_capacity_rejections", Unaudited)

	// TenantRequests counts admission attempts per tenant (deploys and
	// infer submissions, accepted or not).
	TenantRequests = newTenantMap("mlv_tenant_requests")
	// TenantServed counts answered inference requests per tenant.
	TenantServed = newTenantMap("mlv_tenant_infers_served")
	// TenantRejections counts per-tenant denials: quota exceeded,
	// in-flight cap hit, and authentication failures attributed to a
	// claimed tenant id.
	TenantRejections = newTenantMap("mlv_tenant_rejections")
	// TenantAuthFailures counts signed-request authentication failures by
	// claimed tenant id ("unknown" when the request named no tenant).
	TenantAuthFailures = newTenantMap("mlv_tenant_auth_failures")
	// TenantQueueDepth gauges requests waiting in the fair-share queues
	// per tenant (+1 on enqueue, -1 when a batch collects the request).
	TenantQueueDepth = newTenantMap("mlv_tenant_queue_depth")
	// TenantBatchRiders counts micro-batch slots occupied per tenant;
	// TenantBatches counts batches that carried at least one of the
	// tenant's requests. Riders/Batches is the tenant's mean batch
	// occupancy.
	TenantBatchRiders = newTenantMap("mlv_tenant_batch_riders")
	// TenantBatches counts batches carrying at least one request of the
	// tenant (see TenantBatchRiders).
	TenantBatches = newTenantMap("mlv_tenant_batches")
)

// quotaHeadroom holds the callback behind the mlv_tenant_quota_headroom
// expvar (expvar.Publish panics on duplicate names, so the Func is
// registered once and indirects through this swappable pointer — tests
// and servers can install their own view without re-registering).
var quotaHeadroom atomic.Value // of func() any

var _ = declare("mlv_tenant_quota_headroom", Unaudited, expvar.Func(func() any {
	if fn, ok := quotaHeadroom.Load().(func() any); ok && fn != nil {
		return fn()
	}
	return map[string]any{}
}))

// SetQuotaHeadroom installs the callback that renders per-tenant quota
// headroom (remaining leases/devices/blocks) under /debug/vars.
func SetQuotaHeadroom(fn func() any) { quotaHeadroom.Store(fn) }
