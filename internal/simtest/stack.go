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
	"mlvfpga/internal/rms"
	"mlvfpga/internal/scaleout"
	"mlvfpga/internal/tenant"
)

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
// compare the real stack against. It has two clients. The random-schedule
// sweep in this package (Run) draws its events from a PRNG and stamps each
// with its schedule index; deterministic external drivers (the scenario
// engine, the benchmark) choose their own events — explicit devices,
// explicit leases, explicit request seeds — through the exported
// operations, each of which advances the step counter by one.
//
// The Stack starts empty: no leases, no specs compiled. All methods must
// be called from the DES goroutine (timer callbacks or between Run calls);
// the only internal concurrency is inside a serve, which joins before
// returning.
type Stack struct {
	o     Options
	eng   *des.Engine
	svc   *rms.Service
	dp    *rms.DataPlane
	cp    *cluster.ControlPlane
	store *artifactstore.Store

	devices []int
	loads   map[int]rms.LoadStats

	live    []int
	killed  []bool // by device id: fleet ids are dense from 0
	drained map[int]bool
	golden  map[goldenKey]uint64
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
	// newline; the lines are kept too only under keepLines (runSchedule).
	traceHash uint64
	lines     []string
	keepLines bool
	violation *Violation

	// step is the event number stamped on trace lines and violations: the
	// sweep sets it to the schedule index, external drivers advance it
	// through Step.
	step int
}

// simPlane is the LoadSource/Resizer the control plane sees: loads come
// from the schedule's scripted map (live queue depths are timing-
// dependent and would break determinism) and resizes pass through to the
// real data plane.
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
		o:               o,
		eng:             eng,
		svc:             svc,
		dp:              dp,
		store:           store,
		comp:            comp,
		loads:           map[int]rms.LoadStats{},
		drained:         map[int]bool{},
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
	clk := cluster.DESClock{Engine: eng, Epoch: time.Unix(0, 0).UTC()}
	s.cp = cluster.New(clk, o.Control, svc, simPlane{s})
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

// TraceHash returns the FNV-64a digest of the trace so far, as Result
// carries it.
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
// registry notices after Control's SuspectAfter/DeadAfter windows.
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
