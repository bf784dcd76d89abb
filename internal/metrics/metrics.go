// Package metrics holds the process-wide expvar counters shared by the
// runtime manager's data plane and the cluster control plane, so operators
// and the control loop read one view. The counters are registered once at
// init (expvar panics on duplicate names) and exported on every serving
// mux under /debug/vars.
package metrics

import (
	"expvar"
	"sync/atomic"
)

// Counters snapshots every mlv_ counter by its expvar name. The
// deterministic simulation harness (internal/simtest) diffs two snapshots
// to check counter conservation: the delta across a simulated run must
// equal the event-derived expectation (expvar counters are process-wide,
// so absolute values are meaningless inside a shared test binary).
func Counters() map[string]int64 {
	return map[string]int64{
		"mlv_leases_active":      LeasesActive.Value(),
		"mlv_infers_served":      InfersServed.Value(),
		"mlv_batches_flushed":    BatchesFlushed.Value(),
		"mlv_migrations":         Migrations.Value(),
		"mlv_migration_failures": MigrationFailures.Value(),
		"mlv_heartbeat_misses":   HeartbeatMisses.Value(),
		"mlv_devices_condemned":  DevicesCondemned.Value(),
	}
}

// ArtifactCounters snapshots the offline-compilation cache counters (the
// artifact store plus the RTL equivalence oracle) by expvar name. They are
// kept out of Counters() because the simulation harness's conservation
// check models serving-path events only; cache behaviour is asserted
// directly against artifactstore.Stats.
func ArtifactCounters() map[string]int64 {
	return map[string]int64{
		"mlv_artifact_hits":       ArtifactHits.Value(),
		"mlv_artifact_misses":     ArtifactMisses.Value(),
		"mlv_artifact_compiles":   ArtifactCompiles.Value(),
		"mlv_artifact_evictions":  ArtifactEvictions.Value(),
		"mlv_artifact_corrupt":    ArtifactCorrupt.Value(),
		"mlv_artifact_disk_bytes": ArtifactDiskBytes.Value(),
		"mlv_equiv_queries":       EquivQueries.Value(),
		"mlv_equiv_struct_hits":   EquivStructuralHits.Value(),
		"mlv_equiv_cache_hits":    EquivCacheHits.Value(),
		"mlv_equiv_sim_runs":      EquivSimRuns.Value(),
	}
}

var (
	// LeasesActive is a gauge of admitted deployments (+1 on Deploy,
	// -1 on Release).
	LeasesActive = expvar.NewInt("mlv_leases_active")
	// InfersServed counts answered inference requests.
	InfersServed = expvar.NewInt("mlv_infers_served")
	// BatchesFlushed counts fresh admission cohorts: one per fair-queue
	// take that put at least one new stream into a slot.
	BatchesFlushed = expvar.NewInt("mlv_batches_flushed")
	// Migrations counts lease re-placements (depth changes and
	// evacuations) performed by the cluster control plane.
	Migrations = expvar.NewInt("mlv_migrations")
	// MigrationFailures counts migration attempts that found no
	// capacity and went into backoff.
	MigrationFailures = expvar.NewInt("mlv_migration_failures")
	// HeartbeatMisses counts device health downgrades caused by missed
	// heartbeats (healthy→suspect and suspect→dead sweep transitions).
	HeartbeatMisses = expvar.NewInt("mlv_heartbeat_misses")
	// DevicesCondemned counts devices marked Dead on positive failure
	// evidence (an explicit ReportDead, e.g. /cluster/kill or an observed
	// scaleout.DeviceError) — kept separate from HeartbeatMisses so
	// operators can tell confirmed failures from timeouts.
	DevicesCondemned = expvar.NewInt("mlv_devices_condemned")
)

// Offline-compilation cache counters: the content-addressed artifact store
// (internal/artifactstore) and the equivalence oracle's memo
// (rtl.EquivChecker) export through the same /debug/vars page so online
// serving and offline caching are observable together.
var (
	// ArtifactHits counts artifact-store lookups served from cache
	// (memory LRU or validated disk blob).
	ArtifactHits = expvar.NewInt("mlv_artifact_hits")
	// ArtifactMisses counts lookups that found no usable artifact.
	ArtifactMisses = expvar.NewInt("mlv_artifact_misses")
	// ArtifactCompiles counts cold compiles the cache failed to absorb
	// (one per miss; singleflight followers add nothing).
	ArtifactCompiles = expvar.NewInt("mlv_artifact_compiles")
	// ArtifactEvictions counts artifacts dropped by the memory LRU or the
	// disk-bytes bound.
	ArtifactEvictions = expvar.NewInt("mlv_artifact_evictions")
	// ArtifactCorrupt counts blobs rejected by checksum/framing/decode
	// validation and deleted (each one falls back to a recompile).
	ArtifactCorrupt = expvar.NewInt("mlv_artifact_corrupt")
	// ArtifactDiskBytes gauges the bytes currently held in blob files.
	ArtifactDiskBytes = expvar.NewInt("mlv_artifact_disk_bytes")

	// EquivQueries counts rtl.EquivChecker.Equivalent calls.
	EquivQueries = expvar.NewInt("mlv_equiv_queries")
	// EquivStructuralHits counts queries decided by structural hashing
	// alone (no simulation considered).
	EquivStructuralHits = expvar.NewInt("mlv_equiv_struct_hits")
	// EquivCacheHits counts queries answered from the hash-pair memo.
	EquivCacheHits = expvar.NewInt("mlv_equiv_cache_hits")
	// EquivSimRuns counts memo misses that ran random-simulation
	// equivalence.
	EquivSimRuns = expvar.NewInt("mlv_equiv_sim_runs")
)

// Continuous-batching data-plane counters. Kept out of Counters() — the
// simulation harness audits them through SlotCounters() with its own
// slot-conservation model (see internal/simtest).
var (
	// SlotsActive gauges streams currently resident in batch slots
	// (+1 on admission, -1 when the slot is freed). At quiescence it must
	// return to its baseline: a persistent residue is a leaked slot.
	SlotsActive = expvar.NewInt("mlv_slots_active")
	// SlotRounds counts executed step rounds; SlotRoundOccupancy sums the
	// cohort size over those rounds, so occupancy/rounds is the mean
	// co-resident stream count (near MaxBatch when admission keeps the
	// slots full under load).
	SlotRounds         = expvar.NewInt("mlv_slot_rounds")
	SlotRoundOccupancy = expvar.NewInt("mlv_slot_round_occupancy")
	// Admissions counts streams admitted into slots;
	// AdmissionsIntoRunning counts the subset admitted into a machine
	// that already had live streams mid-flight.
	Admissions            = expvar.NewInt("mlv_admissions")
	AdmissionsIntoRunning = expvar.NewInt("mlv_admissions_into_running")
	// Steals counts scheduler rounds a worker ran on a machine stolen
	// from another shard's run queue.
	Steals = expvar.NewInt("mlv_steals")
	// AdmissionWaitNS gauges the most recent per-engine EWMA of
	// queue-to-slot admission latency in nanoseconds.
	AdmissionWaitNS = expvar.NewInt("mlv_admission_wait_ns")
)

// SlotCounters snapshots the continuous-batching counters by expvar name
// (the simulation harness diffs two snapshots for slot conservation).
func SlotCounters() map[string]int64 {
	return map[string]int64{
		"mlv_slots_active":            SlotsActive.Value(),
		"mlv_slot_rounds":             SlotRounds.Value(),
		"mlv_slot_round_occupancy":    SlotRoundOccupancy.Value(),
		"mlv_admissions":              Admissions.Value(),
		"mlv_admissions_into_running": AdmissionsIntoRunning.Value(),
		"mlv_steals":                  Steals.Value(),
	}
}

// Checkpoint/restore counters: snapshot volume, preemptive scheduling
// and defragmentation. Kept out of Counters() — the simulation harness
// audits them through SnapshotCounters() with its own snapshot-
// conservation model (captures from preemption must be matched by
// restores; see internal/simtest).
var (
	// SnapshotCaptures counts slot checkpoints taken (preemption,
	// transplant on resize, drain-deadline checkpointing);
	// SnapshotRestores counts checkpoints installed into a slot.
	SnapshotCaptures = expvar.NewInt("mlv_snapshot_captures")
	SnapshotRestores = expvar.NewInt("mlv_snapshot_restores")
	// SnapshotBytes sums the encoded payload size of every capture.
	SnapshotBytes = expvar.NewInt("mlv_snapshot_bytes")
	// PreemptEvictions counts streams evicted mid-flight from a slot
	// (their checkpoints re-enter the fair queue as resume tokens);
	// PreemptRestores counts evicted streams re-admitted from a token.
	PreemptEvictions = expvar.NewInt("mlv_preempt_evictions")
	PreemptRestores  = expvar.NewInt("mlv_preempt_restores")
	// PreemptRequests counts explicit or automatic preemption triggers
	// (each may evict zero or more slots).
	PreemptRequests = expvar.NewInt("mlv_preempt_requests")
	// DrainCheckpoints counts streams checkpointed because a shutdown
	// drain deadline expired before they finished. Not part of the
	// simtest conservation model (the harness never deadline-drains).
	DrainCheckpoints = expvar.NewInt("mlv_drain_checkpoints")
	// DefragRuns counts defragmentation planner invocations; DefragMoves
	// counts the checkpoint-migrations those runs performed.
	DefragRuns  = expvar.NewInt("mlv_defrag_runs")
	DefragMoves = expvar.NewInt("mlv_defrag_moves")
)

// SnapshotCounters snapshots the checkpoint/restore counters by expvar
// name (the simulation harness diffs two snapshots for snapshot
// conservation; DrainCheckpoints and DefragRuns are excluded from the
// equality model and audited directly).
func SnapshotCounters() map[string]int64 {
	return map[string]int64{
		"mlv_snapshot_captures": SnapshotCaptures.Value(),
		"mlv_snapshot_restores": SnapshotRestores.Value(),
		"mlv_snapshot_bytes":    SnapshotBytes.Value(),
		"mlv_preempt_evictions": PreemptEvictions.Value(),
		"mlv_preempt_restores":  PreemptRestores.Value(),
		"mlv_preempt_requests":  PreemptRequests.Value(),
		"mlv_defrag_moves":      DefragMoves.Value(),
	}
}

// Multi-tenant serving counters. The per-tenant maps are keyed by tenant
// id; they are kept out of Counters() because the simulation harness
// checks them through TenantCounters() with its own per-tenant event
// model, and the serving-path counters above stay tenant-blind.
var (
	// CapacityRejections counts HTTP requests shed for lack of capacity
	// (503 + Retry-After: deploy with no free blocks, serving queue full,
	// lease draining) so load-shedding is observable and clients can back
	// off.
	CapacityRejections = expvar.NewInt("mlv_capacity_rejections")

	// TenantRequests counts admission attempts per tenant (deploys and
	// infer submissions, accepted or not).
	TenantRequests = expvar.NewMap("mlv_tenant_requests")
	// TenantServed counts answered inference requests per tenant.
	TenantServed = expvar.NewMap("mlv_tenant_infers_served")
	// TenantRejections counts per-tenant denials: quota exceeded,
	// in-flight cap hit, and authentication failures attributed to a
	// claimed tenant id.
	TenantRejections = expvar.NewMap("mlv_tenant_rejections")
	// TenantAuthFailures counts signed-request authentication failures by
	// claimed tenant id ("unknown" when the request named no tenant).
	TenantAuthFailures = expvar.NewMap("mlv_tenant_auth_failures")
	// TenantQueueDepth gauges requests waiting in the fair-share queues
	// per tenant (+1 on enqueue, -1 when a batch collects the request).
	TenantQueueDepth = expvar.NewMap("mlv_tenant_queue_depth")
	// TenantBatchRiders counts micro-batch slots occupied per tenant;
	// TenantBatches counts batches that carried at least one of the
	// tenant's requests. Riders/Batches is the tenant's mean batch
	// occupancy.
	TenantBatchRiders = expvar.NewMap("mlv_tenant_batch_riders")
	// TenantBatches counts batches carrying at least one request of the
	// tenant (see TenantBatchRiders).
	TenantBatches = expvar.NewMap("mlv_tenant_batches")
)

// TenantCounters snapshots every per-tenant map by expvar name, then by
// tenant id. The simulation harness diffs two snapshots against its
// per-tenant event model (maps are process-wide, so absolute values are
// meaningless inside a shared test binary).
func TenantCounters() map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for _, m := range []*expvar.Map{
		TenantRequests, TenantServed, TenantRejections,
		TenantAuthFailures, TenantQueueDepth, TenantBatchRiders, TenantBatches,
	} {
		byTenant := map[string]int64{}
		m.Do(func(kv expvar.KeyValue) {
			if v, ok := kv.Value.(*expvar.Int); ok {
				byTenant[kv.Key] = v.Value()
			}
		})
		out[mapName(m)] = byTenant
	}
	return out
}

// mapName recovers the registered expvar name of one of the package's
// tenant maps (expvar.Map does not expose its name).
func mapName(m *expvar.Map) string {
	switch m {
	case TenantRequests:
		return "mlv_tenant_requests"
	case TenantServed:
		return "mlv_tenant_infers_served"
	case TenantRejections:
		return "mlv_tenant_rejections"
	case TenantAuthFailures:
		return "mlv_tenant_auth_failures"
	case TenantQueueDepth:
		return "mlv_tenant_queue_depth"
	case TenantBatchRiders:
		return "mlv_tenant_batch_riders"
	case TenantBatches:
		return "mlv_tenant_batches"
	}
	return "unknown"
}

// quotaHeadroom holds the callback behind the mlv_tenant_quota_headroom
// expvar (expvar.Publish panics on duplicate names, so the Func is
// registered once and indirects through this swappable pointer — tests
// and servers can install their own view without re-registering).
var quotaHeadroom atomic.Value // of func() any

func init() {
	expvar.Publish("mlv_tenant_quota_headroom", expvar.Func(func() any {
		if fn, ok := quotaHeadroom.Load().(func() any); ok && fn != nil {
			return fn()
		}
		return map[string]any{}
	}))
}

// SetQuotaHeadroom installs the callback that renders per-tenant quota
// headroom (remaining leases/devices/blocks) under /debug/vars.
func SetQuotaHeadroom(fn func() any) { quotaHeadroom.Store(fn) }
