// Package simtest is a fully deterministic whole-cluster simulator in the
// FoundationDB style. One type, Stack, is the simulator: the real stack
// (rms admission service + data plane, cluster control plane, registry)
// on the discrete-event engine's virtual clock, plus the model the
// invariant checkers compare it with after every operation. Its drivers
// choose their own events through its exported operations: the scenario
// engine (internal/scenario) and the benchmark.
//
// Everything time-dependent rides cluster.DESClock over des.Engine, and
// nothing in the stack reads wall-clock time or real randomness, so the
// same operations always produce the same trace and the same verdict. The
// package's tests drive the Stack with seeded random schedules of
// interleaved control- and data-plane events, and shrink a failing
// schedule to a minimal one (ddmin) that they report with its seed.
package simtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mlvfpga/internal/artifactstore"
	"mlvfpga/internal/cluster"
	"mlvfpga/internal/des"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/scaleout"
	"mlvfpga/internal/tenant"
)

// Options configures one Stack.
type Options struct {
	// Cluster is the simulated device inventory.
	Cluster resource.ClusterSpec
	// Infer tunes the data plane; Infer.Seed makes lease weights
	// reproducible (weights derive from Infer.Seed + lease id).
	Infer rms.InferOptions
	// Tenants, when non-empty, installs a tenant registry on the service
	// and data plane: every deploy and infer is attributed to a tenant,
	// lease quotas are enforced, and the quota-conservation and
	// tenant-accounting invariants activate.
	Tenants []tenant.Tenant
}

// DefaultOptions returns the paper's 4-device cluster, a data plane whose
// lease weights derive from seed, and two tenants.
func DefaultOptions(seed int64) Options {
	return Options{
		Cluster: resource.PaperCluster(),
		Infer: rms.InferOptions{
			MaxBatch: 4,
			Machines: 1,
			Tiles:    1,
			Seed:     seed,
			// Automatic latency-class preemption stays on: preempted
			// streams resume bit-identically, so traces remain
			// deterministic while the checkpoint path earns real coverage.
			Preempt: true,
		},
		// Two tenants of opposite QoS class, each allowed 3 lease slots:
		// on the 4-lease random schedules quota rejections genuinely occur
		// (one tenant can hold 3 while the other deploys) without starving
		// the sim. In-flight and block quotas stay unlimited — their
		// enforcement is timing-adjacent and belongs to the rms unit tests.
		Tenants: []tenant.Tenant{
			{ID: "sim-lat", Key: "sim-lat-key", Class: tenant.Latency, Quotas: tenant.Quotas{MaxLeases: 3}},
			{ID: "sim-bat", Key: "sim-bat-key", Class: tenant.Batch, Quotas: tenant.Quotas{MaxLeases: 3}},
		},
	}
}

// A driver ends its run with SettleSteps rounds of Settle, SettlePeriod
// apart, so evacuations and retry backoffs quiesce before the stranded
// audit: 12 s outlasts the control plane NewStack builds, whose backoff
// caps at 4 s.
const (
	SettleSteps  = 12
	SettlePeriod = time.Second
)

// Violation is one invariant breach.
type Violation struct {
	// Step is the event number after which the breach was seen.
	Step int
	// Invariant names the checker: one of InvariantFamilies, or an
	// *-error for an operation that failed when the model says it cannot.
	Invariant string
	Detail    string
}

func (v *Violation) String() string {
	return fmt.Sprintf("step %d: invariant %q: %s", v.Step, v.Invariant, v.Detail)
}

// InvariantFamilies lists every invariant the Stack audits after each
// event, in the order checkInvariants runs them. Scenario reports embed
// the list so a report is self-describing about what "green" certified.
func InvariantFamilies() []string {
	return []string{
		"lease-conservation",
		"placement-shape",
		"duplicate-device",
		"placement-conservation",
		"feasible-depth",
		"quota-conservation",
		"tenant-accounting",
		"artifact-cache",
		"warm-deploy",
		"snapshot-conservation",
		"counter-conservation",
		"batch-conservation",
		"slot-conservation",
		"golden-equivalence",
		"infer-served",
		"stranded-placement",
	}
}

// Stack is the simulator: one fresh service + data plane + control plane
// wired to one DES engine, plus the model state the invariant checkers
// compare the real stack against. Its drivers choose their own events —
// explicit devices, explicit leases, explicit request seeds — through the
// exported operations, each of which advances the step counter by one.
//
// The Stack starts empty: no leases, no specs compiled. All methods must
// be called from the DES goroutine (timer callbacks or between Run calls);
// the only internal concurrency is inside a serve, which joins before
// returning.
type Stack struct {
	eng   *des.Engine
	svc   *rms.Service
	dp    *rms.DataPlane
	cp    *cluster.ControlPlane
	store *artifactstore.Store

	devices []int
	// loads is the queue depth the control plane reads per lease: scripted
	// (live depths are timing-dependent and would break determinism) by
	// the package tests' load events, and empty for every other driver.
	loads map[int]rms.LoadStats

	live   []int
	killed []bool // by device id: fleet ids are dense from 0
	golden map[goldenKey]uint64
	// inputRng draws every request's inputs (see inputsFor).
	inputRng *rand.Rand
	// base is the counter reading at the Stack's birth (the counters are
	// process-wide, so the checkers only ever look at deltas from it).
	base metrics.Values

	// The audit's per-event scratch; the trace's line buffer and the JSON
	// encoder over jbuf; the last tick's report; serveOn's requests and
	// their output hashes.
	vals   metrics.Values
	leases rms.LeaseView
	owned  map[string]int
	line   []byte
	jbuf   bytes.Buffer
	enc    *json.Encoder
	rep    cluster.TickReport
	reqs   []request
	outs   []uint64
	wg     sync.WaitGroup

	// Multi-spec model: which layer each live lease serves, and the set of
	// distinct artifact keys ever sent to the deploy path. The compile runs
	// before admission (and its artifact survives a failed placement), so
	// the expected artifact-store compute count is exactly len(keySeen).
	// Keys, not specs: distinct layers resolving to the same accelerator
	// instance share one compilation product.
	comp      *rms.Compiler
	leaseSpec map[int]kernels.LayerSpec
	keySeen   map[artifactstore.Key]bool

	// Tenant model: who owns each live lease, plus per-tenant expected
	// counter deltas mirroring mlv_tenant_{requests,infers_served,
	// rejections}.
	reg             *tenant.Registry
	tenants         []tenant.Tenant // reg.List(), fixed at NewStack
	leaseTenant     map[int]string
	expTenantReq    map[string]int64
	expTenantServed map[string]int64
	expTenantRej    map[string]int64

	expInfers      int64
	expInferEvents int64
	expMigrations  int64
	expMigFailures int64
	expHbMisses    int64
	expCondemned   int64
	expDefragMoves int64

	settling bool
	// excused marks leases whose settle-phase evacuation failed for lack
	// of capacity: they are allowed to end the run stranded.
	excused map[int]bool

	// traceHash is the running FNV-64a of the trace's lines, each with its
	// newline; the lines are kept too only under keepLines, which the
	// package's tests set.
	traceHash uint64
	lines     []string
	keepLines bool
	violation *Violation

	// step is the event number stamped on trace lines and violations,
	// advanced by every exported operation.
	step int
}

// simPlane is the LoadSource/Resizer the control plane sees: loads come
// from the Stack's scripted map and resizes pass through to the real data
// plane.
type simPlane struct{ s *Stack }

func (p simPlane) Load(leaseID int) (rms.LoadStats, bool) {
	l, ok := p.s.loads[leaseID]
	return l, ok
}

func (p simPlane) Resize(leaseID int) error { return p.s.dp.Resize(leaseID) }

// NewStack builds a fresh, empty stack from the options.
func NewStack(o Options) (*Stack, error) {
	eng := des.New()
	db := rms.NewDatabase(rms.Flexible, perf.DefaultParams(), scaleout.DefaultOptions())
	svc, err := rms.NewService(o.Cluster, db)
	if err != nil {
		return nil, fmt.Errorf("simtest: building service: %w", err)
	}
	// The warm-start compile path runs over a memory-backed artifact
	// store, so every deploy after the preamble's first must be a cache
	// hit — the artifact-cache and warm-deploy invariants pin that.
	store := artifactstore.NewMemory(artifactstore.Options{})
	comp := rms.NewCompiler(store, rms.CompilerOptions{})
	svc.SetCompiler(comp)
	dp := rms.NewDataPlane(svc, o.Infer)
	s := &Stack{
		eng:             eng,
		svc:             svc,
		dp:              dp,
		store:           store,
		comp:            comp,
		loads:           map[int]rms.LoadStats{},
		golden:          map[goldenKey]uint64{},
		inputRng:        rand.New(rand.NewSource(0)),
		excused:         map[int]bool{},
		owned:           map[string]int{},
		leaseSpec:       map[int]kernels.LayerSpec{},
		keySeen:         map[artifactstore.Key]bool{},
		leaseTenant:     map[int]string{},
		expTenantReq:    map[string]int64{},
		expTenantServed: map[string]int64{},
		expTenantRej:    map[string]int64{},
		traceHash:       fnvOffset,
	}
	s.enc = json.NewEncoder(&s.jbuf)
	if len(o.Tenants) > 0 {
		reg, rerr := tenant.NewRegistry(o.Tenants...)
		if rerr != nil {
			return nil, fmt.Errorf("simtest: tenant registry: %w", rerr)
		}
		s.reg, s.tenants = reg, reg.List()
		svc.SetTenants(reg)
		dp.SetTenants(reg)
	}
	// The default control plane with an eager planner, so scripted load
	// actually moves leases. Its backoff cap is what SettleSteps and
	// SettlePeriod outlast.
	ctl := cluster.DefaultConfig()
	ctl.Planner.ScaleUpQueue, ctl.Planner.ScaleDownIdleTicks = 4, 2
	clk := cluster.DESClock{Engine: eng, Epoch: time.Unix(0, 0).UTC()}
	s.cp = cluster.New(clk, ctl, svc, simPlane{s})
	fleet := svc.Devices()
	s.devices, s.killed = make([]int, len(fleet)), make([]bool, len(fleet))
	for i := range fleet {
		s.devices[i] = fleet[i].ID // ascending: the table is indexed by id
	}
	// Counter baselines before any deploy, so the LeasesActive delta
	// tracks len(s.live) exactly and per-tenant deltas start at zero.
	s.base = metrics.Snapshot()
	return s, nil
}

// Close shuts the data plane down. After Close the stack must not be used.
func (s *Stack) Close() { s.dp.Close() }

// Engine returns the DES engine the control plane's clock reads. Drivers
// lay their timeline onto it and call Run.
func (s *Stack) Engine() *des.Engine { return s.eng }

// Step advances and returns the event counter used in traces/violations.
func (s *Stack) Step() int { s.step++; return s.step }

// Devices returns the device IDs in the simulated cluster, ascending.
func (s *Stack) Devices() []int { return append([]int(nil), s.devices...) }

// Violation returns the first invariant breach, or nil while green.
func (s *Stack) Violation() *Violation { return s.violation }

// TraceHash returns the FNV-64a digest of the trace so far.
func (s *Stack) TraceHash() uint64 { return s.traceHash }

// Deploy deploys one lease of the given spec for the given tenant (empty
// for a tenantless run) and audits the admission decision. Returns
// (lease, true) on admission, (nil, true) on a correctly-shed attempt, and
// (nil, false) after recording a violation.
func (s *Stack) Deploy(spec kernels.LayerSpec, who string) (*rms.Lease, bool) {
	return s.DeployReplica(spec, who, 0)
}

// DeployReplica is Deploy of a replica of live lease of, of the same spec
// and tenant (rms.PlaceOptions.Replicates); of = 0 is Deploy.
func (s *Stack) DeployReplica(spec kernels.LayerSpec, who string, of int) (*rms.Lease, bool) {
	s.Step()
	l, ok := s.deploy(spec, who, of)
	if l == nil {
		return nil, ok
	}
	return l, s.checkInvariants()
}

// Serve runs one concurrent batch of len(seeds) requests on the lease,
// attributed to tenant who, joins it, and audits the outputs against the
// golden (lease, seed) memo plus every invariant family. Reports whether
// the stack is still green.
func (s *Stack) Serve(id int, who string, seeds []int64) bool {
	s.Step()
	s.serveOn(id, who, seeds, "infer", nil)
	return s.checkInvariants()
}

// Kill marks a device dead: it stops heartbeating until Revive. The
// registry notices after its suspect and dead windows.
func (s *Stack) Kill(device int) { s.Step(); s.kill(device) }

// Revive brings a killed device back and beats it once immediately.
func (s *Stack) Revive(device int) bool { s.Step(); return s.revive(device) }

// Drain starts an administrative drain of a device.
func (s *Stack) Drain(device int) bool { s.Step(); return s.drain(device) }

// Undrain returns a draining device to service.
func (s *Stack) Undrain(device int) bool { s.Step(); return s.undrain(device) }

// HeartbeatAll beats every device not currently killed.
func (s *Stack) HeartbeatAll() bool { s.Step(); return s.violation == nil && s.beatAll(true) }

// Tick runs one control-plane reconciliation round (health decay,
// evacuations, autoscaling) and folds its report into the counter model.
func (s *Stack) Tick() bool {
	s.Step()
	if s.violation == nil {
		s.tick("tick")
	}
	return s.checkInvariants()
}

// Settle runs one quiesce round: heartbeat survivors, tick, check. The
// stack enters settling mode, so evacuations that verifiably fail for
// lack of capacity excuse their lease from the stranded check.
func (s *Stack) Settle() bool { s.Step(); s.settle(); return s.violation == nil }

// CheckStranded runs the end-of-run stranded-placement audit.
func (s *Stack) CheckStranded() bool {
	if s.violation == nil {
		s.Step()
		s.checkStranded()
	}
	return s.violation == nil
}

// Prebuild starts the lease's engine build beside the caller
// (rms.DataPlane.Prebuild); it traces nothing and changes no result.
func (s *Stack) Prebuild(id int, wg *sync.WaitGroup) { s.dp.Prebuild(id, wg) }

// LeaseLatency returns the modelled per-inference latency of a live
// lease — the scenario engine's queueing service time.
func (s *Stack) LeaseLatency(id int) (time.Duration, bool) {
	l, ok := s.svc.Lease(id)
	if !ok {
		return 0, false
	}
	return l.Latency, true
}

// CounterDeltas returns the process-global counters of the three families
// a scenario report carries, as deltas from the stack's birth (the counters
// are shared across stacks in one process, so only deltas are meaningful).
func (s *Stack) CounterDeltas() map[string]int64 {
	d := metrics.Snapshot().Sub(s.base)
	out := map[string]int64{}
	for _, f := range []metrics.Family{metrics.ServingFamily, metrics.SlotFamily, metrics.SnapshotFamily} {
		for name, v := range d.Family(f) {
			out[name] = v
		}
	}
	return out
}
