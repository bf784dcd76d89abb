package simtest

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlvfpga/internal/cluster"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/tenant"
)

// resizeFailMsg is the distinctive error the Stack's resize interceptor
// injects. The counter-conservation checker matches it verbatim to tell
// "migration landed but the pool resize failed" (counts as a migration,
// retried as resize debt) apart from a migration that found no capacity.
const resizeFailMsg = "simtest: injected resize failure"

// Options configures one simulated run. Everything that influences the
// run is in here, so Run(o) is a pure function of o.
type Options struct {
	// Seed derives the event schedule (and nothing else: the stack under
	// test contains no randomness of its own at these settings).
	Seed int64
	// Steps is the number of schedule events.
	Steps int
	// Cluster is the simulated device inventory.
	Cluster resource.ClusterSpec
	// Spec is the layer every simulated lease serves.
	Spec kernels.LayerSpec
	// Infer tunes the data plane; Infer.Seed makes lease weights
	// reproducible (weights derive from Infer.Seed + lease id).
	Infer rms.InferOptions
	// Control tunes the control plane under test.
	Control cluster.Config
	// MaxLeases caps concurrently live leases.
	MaxLeases int
	// Tenants, when non-empty, installs a tenant registry on the service
	// and data plane: every deploy and infer is attributed to a tenant
	// drawn from the schedule, lease quotas are enforced, and the
	// quota-conservation and tenant-accounting invariants activate.
	Tenants []tenant.Tenant
	// Spacing is the virtual time between schedule events; against the
	// registry's SuspectAfter/DeadAfter windows it sets how fast killed
	// devices decay through the health state machine.
	Spacing time.Duration
	// SettleSteps heartbeat+tick rounds run after the schedule so
	// evacuations and backoffs quiesce before the end-of-run stranded
	// check; SettlePeriod is their spacing (it must comfortably exceed
	// the control plane's 4 s backoff cap / SettleSteps so retries burn off).
	SettleSteps  int
	SettlePeriod time.Duration
}

// DefaultOptions returns the sweep configuration: the paper's 4-device
// cluster, a small LSTM lease whose feasible ladder spans multiple
// depths, and an eager planner so load events actually move leases.
func DefaultOptions(seed int64) Options {
	ctl := cluster.DefaultConfig()
	ctl.Planner.ScaleUpQueue = 4
	ctl.Planner.ScaleDownIdleTicks = 2
	ctl.MachinesPerPiece = 1
	return Options{
		Seed:    seed,
		Steps:   500,
		Cluster: resource.PaperCluster(),
		Spec:    kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2},
		Infer: rms.InferOptions{
			MaxBatch: 4,
			Machines: 1,
			Tiles:    1,
			Seed:     7,
			// Automatic latency-class preemption stays on in the sweep:
			// preempted streams resume bit-identically, so traces remain
			// deterministic while the checkpoint path earns real coverage.
			Preempt: true,
		},
		Control:   ctl,
		MaxLeases: 4,
		// Two tenants of opposite QoS class, each allowed 3 of the 4
		// lease slots: quota rejections genuinely occur (one tenant can
		// hold 3 while the other deploys) without starving the sim.
		// In-flight and block quotas stay unlimited — their enforcement
		// is timing-adjacent and belongs to the rms unit tests.
		Tenants: []tenant.Tenant{
			{ID: "sim-lat", Key: "sim-lat-key", Class: tenant.Latency, Quotas: tenant.Quotas{MaxLeases: 3}},
			{ID: "sim-bat", Key: "sim-bat-key", Class: tenant.Batch, Quotas: tenant.Quotas{MaxLeases: 3}},
		},
		Spacing:      200 * time.Millisecond,
		SettleSteps:  12,
		SettlePeriod: time.Second,
	}
}

// Violation is one invariant breach.
type Violation struct {
	// Step indexes the schedule event after which the breach was seen
	// (settle rounds continue the numbering past the schedule).
	Step int
	// Invariant names the checker: one of InvariantFamilies, or an
	// *-error for an operation that failed when the model says it cannot.
	Invariant string
	Detail    string
}

func (v *Violation) String() string {
	return fmt.Sprintf("step %d: invariant %q: %s", v.Step, v.Invariant, v.Detail)
}

// Result is one run's verdict.
type Result struct {
	Seed     int64
	Schedule []Event
	// Trace is the resolved event log (deterministic fields only).
	Trace     []string
	TraceHash uint64
	// Violation is nil when every invariant held.
	Violation *Violation
	// Minimal is the shrunken schedule still reproducing
	// Violation.Invariant; MinimalTrace is its resolved log.
	Minimal      []Event
	MinimalTrace []string
	// MinimizeRuns counts re-executions the shrinking pass spent.
	MinimizeRuns int
}

// Report renders the result for humans, including the reproduction
// command when the run failed.
func (r *Result) Report() string {
	if r.Violation == nil {
		return fmt.Sprintf("seed %d: ok (%d events, trace %016x)", r.Seed, len(r.Schedule), r.TraceHash)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %s\n", r.Seed, r.Violation)
	fmt.Fprintf(&b, "minimized schedule: %d of %d events (%d shrink runs):\n",
		len(r.Minimal), len(r.Schedule), r.MinimizeRuns)
	for i, ev := range r.Minimal {
		fmt.Fprintf(&b, "  [%02d] %s\n", i, ev)
	}
	if len(r.MinimalTrace) > 0 {
		b.WriteString("minimal trace:\n")
		for _, line := range r.MinimalTrace {
			b.WriteString("  " + line + "\n")
		}
	}
	fmt.Fprintf(&b, "reproduce: go test ./internal/simtest -run TestSimSeed -seed=%d -steps=%d -v\n",
		r.Seed, len(r.Schedule))
	return b.String()
}

// Run executes the seed's schedule and, on a violation, shrinks it to a
// minimal reproduction. Deterministic: same Options, same Result.
func Run(o Options) (*Result, error) {
	sched := Schedule(o.Seed, o.Steps)
	out, err := runSchedule(o, sched)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Seed:      o.Seed,
		Schedule:  sched,
		Trace:     out.trace,
		TraceHash: out.TraceHash(),
		Violation: out.violation,
	}
	if out.violation != nil {
		res.Minimal, res.MinimalTrace, res.MinimizeRuns = minimize(o, sched, out.violation)
		if res.MinimalTrace == nil {
			res.MinimalTrace = out.trace // nothing shrank: the full run is minimal
		}
	}
	return res, nil
}

// goldenKey memoizes inference outputs by (lease, input seed): the same
// lease has fixed weights, so the same input must produce bit-identical
// outputs for the rest of its life, across every migration and resize.
type goldenKey struct {
	lease int
	seed  int64
}

// runSchedule executes an explicit schedule (used directly by the
// minimizer; Run derives the schedule from the seed) as a client of Stack:
// two preamble leases, the events laid onto the DES engine at fixed
// spacing and stamped with their schedule index, the settle rounds, the
// stranded audit. It returns the finished (closed) Stack for its trace
// and verdict.
func runSchedule(o Options, sched []Event) (*Stack, error) {
	s, err := NewStack(o)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	// Preamble: two leases exist before the first event, so even a
	// one-event minimal schedule has something to act on. With tenants
	// configured they alternate owners, so both tenants hold state from
	// step zero.
	for i := 0; i < 2 && i < o.MaxLeases; i++ {
		if l, _ := s.deployAs(o.Spec, s.tenantFor(uint64(i))); l == nil {
			return nil, fmt.Errorf("simtest: preamble deploy shed or failed: %v", s.violation)
		}
	}
	at := func(when time.Duration, step int, op func()) error {
		return s.eng.At(when, func(time.Duration) { s.step = step; op() })
	}
	for i := range sched {
		ev := sched[i]
		if err := at(time.Duration(i+1)*o.Spacing, i, func() { s.exec(ev) }); err != nil {
			return nil, err
		}
	}
	settleStart := time.Duration(len(sched)+1) * o.Spacing
	for k := 0; k < o.SettleSteps; k++ {
		if err := at(settleStart+time.Duration(k)*o.SettlePeriod, len(sched)+k, s.settle); err != nil {
			return nil, err
		}
	}
	s.eng.Run(0)
	s.step = len(sched) + o.SettleSteps
	s.checkStranded()
	return s, nil
}

// tracef formats a "%04d "-stamped line in s.line and keeps its string.
func (s *Stack) tracef(format string, args ...any) {
	b := s.line[:0]
	for w := 1000; w > 1 && s.step < w; w /= 10 {
		b = append(b, '0')
	}
	b = append(strconv.AppendInt(b, int64(s.step), 10), ' ')
	s.line = fmt.Appendf(b, format, args...)
	s.trace = append(s.trace, string(s.line))
}

func (s *Stack) fail(invariant, format string, args ...any) {
	if s.violation == nil {
		s.violation = &Violation{Step: s.step, Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	}
}

// pick resolves an event's PRNG draw to one of the candidates, or traces
// the event's noop when there are none.
func (s *Stack) pick(kind string, r uint64, from []int) (int, bool) {
	if len(from) == 0 {
		s.tracef("%s noop", kind)
		return 0, false
	}
	return from[int(r%uint64(len(from)))], true
}

func (s *Stack) devicesWhere(ok func(d int) bool) []int {
	var out []int
	for _, d := range s.devices {
		if ok(d) {
			out = append(out, d)
		}
	}
	return out
}

// tenantFor resolves a PRNG draw to a tenant id (empty when the run is
// tenantless). Callers pass distinct shifted views of the event's R so the
// tenant choice does not correlate with lease or seed choices.
func (s *Stack) tenantFor(r uint64) string {
	if len(s.o.Tenants) == 0 {
		return ""
	}
	return s.o.Tenants[int(r%uint64(len(s.o.Tenants)))].ID
}

// tenantAtLeaseCap answers whether the model says the tenant has spent its
// MaxLeases quota — the oracle the deploy path is checked against.
func (s *Stack) tenantAtLeaseCap(who string) bool {
	if who == "" || s.reg == nil {
		return false
	}
	t, ok := s.reg.Lookup(who)
	if !ok || t.Quotas.MaxLeases <= 0 {
		return false
	}
	n := 0
	for _, id := range s.live {
		if s.leaseTenant[id] == who {
			n++
		}
	}
	return n >= t.Quotas.MaxLeases
}

func (s *Stack) exec(ev Event) {
	if s.violation != nil {
		return // fail-stop: later events would check against a broken model
	}
	switch ev.Kind {
	case EvHeartbeat:
		s.beatAll(true)
	case EvTick:
		s.tick("tick")
	case EvInfer:
		s.serveBatch(ev.R, "infer", nil)
	case EvLoad:
		if id, ok := s.pick("load", ev.R, s.live); ok {
			s.offerLoad(id, int((ev.R>>8)%10))
		}
	case EvDeploy:
		if len(s.live) >= s.o.MaxLeases {
			s.tracef("deploy noop (at cap)")
		} else {
			s.deploy(s.o.Spec, s.tenantFor(ev.R>>24))
		}
	case EvRelease:
		if id, ok := s.pick("release", ev.R, s.live); ok {
			s.release(id)
		}
	case EvRedeploy:
		s.doRedeploy(ev.R)
	case EvKill:
		// Keep at least two devices beating, so the sim never collapses
		// into a fleet that cannot host anything.
		alive := s.devicesWhere(func(d int) bool { return !s.killed[d] })
		if len(alive) <= 2 {
			alive = nil
		}
		if d, ok := s.pick("kill", ev.R, alive); ok {
			s.kill(d)
		}
	case EvRevive:
		if d, ok := s.pick("revive", ev.R, s.devicesWhere(func(d int) bool { return s.killed[d] })); ok {
			s.revive(d)
		}
	case EvDrain:
		if len(s.drained) > 0 {
			s.tracef("drain noop (one at a time)")
		} else if d, ok := s.pick("drain", ev.R, s.devicesWhere(func(d int) bool { return !s.killed[d] })); ok {
			s.drain(d)
		}
	case EvUndrain:
		if d, ok := s.pick("undrain", ev.R, s.devicesWhere(func(d int) bool { return s.drained[d] })); ok {
			s.undrain(d)
		}
	case EvCondemn:
		s.doCondemn(ev.R)
	case EvResizeFail:
		k := 1 + int(ev.R%2)
		s.armFail += k
		s.tracef("resize_fail arm=%d", k)
	case EvPreempt:
		s.doPreempt(ev.R)
	case EvRestore:
		s.doRestore(ev.R)
	case EvDefrag:
		s.doDefrag()
	}
	s.checkInvariants()
}

// beatAll beats every device not currently killed, in one registry pass,
// tracing how many when trace is set; false after recording a violation.
func (s *Stack) beatAll(trace bool) bool {
	beat, err := s.cp.Registry().HeartbeatEach(s.devices, s.killed)
	if err != nil {
		s.fail("heartbeat-error", "%v", err)
	} else if trace {
		s.tracef("heartbeat n=%d", beat)
	}
	return err == nil
}

// tick runs one control-plane round and folds its report into the counter
// model; label names the trace line ("tick", or "settle" when quiescing).
func (s *Stack) tick(label string) {
	rep := s.cp.Tick()
	s.accountTick(rep)
	b, _ := json.Marshal(rep)
	s.tracef("%s %s", label, b)
}

// accountTick folds a tick report into the expected-counter model. An
// evacuate/scale event whose only error is the injected resize failure
// still migrated (the resize is owed as debt); a "resize" retry event
// touches no counter either way.
func (s *Stack) accountTick(rep *cluster.TickReport) {
	s.expHbMisses += int64(len(rep.Transitions))
	for _, ev := range rep.Events {
		switch ev.Kind {
		case "evacuate", "scale_up", "scale_down":
			if ev.Err == "" || ev.Err == resizeFailMsg {
				s.expMigrations++
			} else {
				s.expMigFailures++
				if s.settling && ev.Kind == "evacuate" {
					s.excused[ev.Lease] = true
				}
			}
		}
	}
}

// doPreempt serves a concurrent batch while firing explicit preemptions
// into it: resident streams are checkpointed back into the fair queue and
// resumed, and the outputs must not change. The eviction count is timing-
// dependent, so it never enters the trace or the model — the snapshot-
// conservation invariants pin the bookkeeping instead, and any demand
// left unconsumed here preempts streams of later events (more coverage,
// same invariants).
func (s *Stack) doPreempt(r uint64) {
	s.serveBatch(r, "preempt", func(id int) {
		for k := 0; k < 24; k++ {
			if _, err := s.dp.Preempt(id, 1); err != nil {
				s.fail("preempt-error", "lease %d: %v", id, err)
				return
			}
			runtime.Gosched() // 1-CPU boxes: let workers hit the demand
		}
	})
}

// doRestore rebuilds the lease's engine pool mid-batch at its current
// size: the transplant checkpoints every queued and resident stream and
// restores them onto the fresh machines, bit-identically.
func (s *Stack) doRestore(r uint64) {
	s.serveBatch(r, "restore", func(id int) {
		lease, ok := s.svc.Lease(id)
		if !ok {
			s.fail("lease-conservation", "model says lease %d is live, service disagrees", id)
			return
		}
		per := s.o.Control.MachinesPerPiece
		if per <= 0 {
			per = cluster.DefaultConfig().MachinesPerPiece
		}
		runtime.Gosched()
		if err := s.dp.Resize(id, lease.Depth*per); err != nil {
			s.fail("restore-error", "lease %d: %v", id, err)
		}
	})
}

// serveBatch is the shared body of the infer-shaped events: a small
// concurrent request batch on one lease, optionally disturbed mid-flight
// by mid (preemption, transplant), then joined and audited against the
// golden memo.
func (s *Stack) serveBatch(r uint64, kind string, mid func(id int)) {
	id, ok := s.pick(kind, r, s.live)
	if !ok {
		return
	}
	// The submitting tenant is drawn independently of the lease, so
	// requests routinely ride leases owned by the other tenant — exactly
	// the cross-tenant traffic the golden memo must prove leak-free
	// (outputs depend on (lease, seed) alone, never on the submitter).
	who := s.tenantFor(r >> 48)
	n := 1 + int((r>>16)%3)
	seeds := make([]int64, n)
	for j := range seeds {
		// A small recurring seed space, so later events replay inputs the
		// lease served before (often across a migration in between) and
		// the golden memo gets real coverage.
		seeds[j] = int64(((r >> 32) + uint64(j)) % 8)
	}
	s.serveOn(id, who, seeds, kind, mid)
}

// serveOn serves one explicit concurrent batch on a lease: the core of
// serveBatch, also driven directly by the scenario engine with its own
// (lease, tenant, seeds) choices.
func (s *Stack) serveOn(id int, who string, seeds []int64, kind string, mid func(id int)) {
	n := len(seeds)
	spec, ok := s.leaseSpec[id]
	if !ok {
		s.fail("lease-conservation", "serve on lease %d the model never deployed", id)
		return
	}
	results := make([]*rms.InferResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		in := s.inputsFor(spec, id, seeds[j])
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[j], errs[j] = s.dp.InferAs(who, id, in)
		}()
	}
	if mid != nil {
		mid(id)
	}
	wg.Wait()
	if who != "" {
		// InferAs counts every attempt before shedding or serving.
		s.expTenantReq[who] += int64(n)
	}
	if s.violation != nil {
		return // mid already failed; the joined requests are accounted above
	}
	hashes := make([]string, n)
	for j := 0; j < n; j++ {
		if errs[j] != nil {
			s.fail("infer-served", "lease %d seed %d tenant %s: %v", id, seeds[j], who, errs[j])
			return
		}
		hash := hashOutputs(results[j].Outputs)
		hashes[j] = fmt.Sprintf("%016x", hash)
		key := goldenKey{lease: id, seed: seeds[j]}
		if prev, ok := s.golden[key]; ok {
			if prev != hash {
				s.fail("golden-equivalence",
					"lease %d seed %d: output hash %016x, previously %016x", id, seeds[j], hash, prev)
				return
			}
		} else {
			s.golden[key] = hash
		}
	}
	if who != "" {
		s.expTenantServed[who] += int64(n)
	}
	s.expInfers += int64(n)
	s.expInferEvents++
	s.tracef("%s lease=%d tenant=%s n=%d seeds=%v out=%v", kind, id, who, n, seeds, hashes)
}

// doDefrag runs one consolidation pass. The report is deterministic (the
// quiet gate reads the scripted load map, placements are a pure function
// of event history), so it is traced whole.
func (s *Stack) doDefrag() {
	rep := s.cp.Defrag()
	if rep.ScoreAfter > rep.ScoreBefore {
		s.fail("defrag-error", "pass %d raised the fragmentation score %d -> %d", rep.Run, rep.ScoreBefore, rep.ScoreAfter)
	}
	for _, ev := range rep.Moves {
		if ev.Err == "" || ev.Err == resizeFailMsg {
			// The consolidation migration landed (a resize failure is owed
			// as debt and retried by a later tick's "resize" event).
			s.expMigrations++
			s.expDefragMoves++
		} else {
			s.expMigFailures++
		}
	}
	b, _ := json.Marshal(rep)
	s.tracef("defrag %s", b)
}

func (s *Stack) offerLoad(id, queueDepth int) {
	s.loads[id] = rms.LoadStats{QueueDepth: queueDepth}
	s.tracef("load lease=%d queue=%d", id, queueDepth)
}

// deploy is deployAs plus the deploy event's trace line.
func (s *Stack) deploy(spec kernels.LayerSpec, who string) (*rms.Lease, bool) {
	l, ok := s.deployAs(spec, who)
	if ok && l == nil {
		s.tracef("deploy shed tenant=%s", who)
	} else if ok {
		s.tracef("deploy lease=%d depth=%d tenant=%s", l.ID, l.Depth, who)
	}
	return l, ok
}

// markSpec records a deploy attempt for the spec's compile plan and
// reports whether its artifact was already ensured — i.e. whether the
// deploy must come back warm. Undeployable specs resolve to no plan and
// trigger no compile.
func (s *Stack) markSpec(spec kernels.LayerSpec) bool {
	key, err := s.comp.PlanKey(spec)
	if err != nil {
		return false
	}
	seen := s.keySeen[key]
	s.keySeen[key] = true
	return seen
}

// deployAs runs one attributed deploy and audits the admission decision
// against the quota model. Returns (lease, true) on admission, (nil, true)
// on a correctly-shed attempt (quota or capacity), and (nil, false) after
// recording a violation.
func (s *Stack) deployAs(spec kernels.LayerSpec, who string) (*rms.Lease, bool) {
	atCap := s.tenantAtLeaseCap(who)
	if who != "" {
		s.expTenantReq[who]++
	}
	// The compile runs before admission, so even a deploy that will be shed
	// on quota or capacity leaves its artifact behind: mark the spec's plan
	// seen before the attempt, and expect a warm lease exactly when its
	// artifact was already ensured.
	wantWarm := s.markSpec(spec)
	l, err := s.svc.DeployWith(spec, rms.PlaceOptions{Tenant: who})
	if errors.Is(err, rms.ErrQuotaExceeded) {
		s.expTenantRej[who]++
		if !atCap {
			s.fail("quota-conservation", "tenant %s shed below its lease quota: %v", who, err)
			return nil, false
		}
		return nil, true
	}
	if errors.Is(err, rms.ErrNoCapacity) {
		return nil, true
	}
	if err != nil {
		s.fail("deploy-error", "%v", err)
		return nil, false
	}
	if atCap {
		s.fail("quota-conservation", "tenant %s admitted past MaxLeases as lease %d", who, l.ID)
		return nil, false
	}
	if wantWarm != l.WarmDeploy {
		s.fail("warm-deploy", "lease %d warm=%v, want %v (artifact store had %d plans)",
			l.ID, l.WarmDeploy, wantWarm, len(s.keySeen))
		return nil, false
	}
	if who != "" {
		s.leaseTenant[l.ID] = who
	}
	s.leaseSpec[l.ID] = spec
	s.live = append(s.live, l.ID)
	return l, true
}

// doRedeploy cycles a live lease through the warm-start path: release it,
// then deploy the same spec again. The preamble populated the artifact
// store, so the replacement lease must come back warm — a redeploy that
// compiles is an invariant breach, not just a slow path.
func (s *Stack) doRedeploy(r uint64) {
	id, ok := s.pick("redeploy", r, s.live)
	if !ok || !s.dropLease(id) {
		return
	}
	// The replacement lease may land on a different tenant than the one
	// released, so redeploys also churn ownership.
	who := s.tenantFor(r >> 24)
	l, ok := s.deployAs(s.o.Spec, who)
	if !ok {
		return
	}
	if l == nil {
		s.tracef("redeploy out=%d shed tenant=%s", id, who)
		return
	}
	s.tracef("redeploy out=%d in=%d depth=%d tenant=%s", id, l.ID, l.Depth, who)
}

// dropLease releases a lease through the data plane's drain path and
// forgets it in the model; redeploy and release trace it differently.
func (s *Stack) dropLease(id int) bool {
	if err := s.svc.Release(id); err != nil {
		s.fail("release-error", "lease %d: %v", id, err)
		return false
	}
	for i, v := range s.live {
		if v == id {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
	delete(s.loads, id)
	delete(s.leaseTenant, id)
	delete(s.leaseSpec, id)
	return true
}

func (s *Stack) release(id int) {
	if s.dropLease(id) {
		s.tracef("release lease=%d", id)
	}
}

// kill silences a device's heartbeats until revive; the registry notices
// after Control's SuspectAfter/DeadAfter windows.
func (s *Stack) kill(d int) {
	s.killed[d] = true
	s.tracef("kill dev=%d", d)
}

// revive brings a killed device back and beats it once immediately.
func (s *Stack) revive(d int) bool {
	s.killed[d] = false
	if err := s.cp.Heartbeat(d); err != nil {
		s.fail("heartbeat-error", "device %d: %v", d, err)
		return false
	}
	s.tracef("revive dev=%d", d)
	return true
}

func (s *Stack) drain(d int) bool {
	if err := s.cp.Drain(d); err != nil {
		s.fail("drain-error", "device %d: %v", d, err)
		return false
	}
	s.drained[d] = true
	s.tracef("drain dev=%d", d)
	return true
}

func (s *Stack) undrain(d int) bool {
	if err := s.cp.Undrain(d); err != nil {
		s.fail("undrain-error", "device %d: %v", d, err)
		return false
	}
	delete(s.drained, d)
	s.tracef("undrain dev=%d", d)
	return true
}

func (s *Stack) doCondemn(r uint64) {
	id, ok := s.pick("condemn", r, s.live)
	if !ok {
		return
	}
	lease, ok := s.svc.Lease(id)
	if !ok {
		s.fail("lease-conservation", "model says lease %d is live, service disagrees", id)
		return
	}
	shard := int((r >> 8) % uint64(len(lease.Placements)))
	want := lease.Placements[shard].FPGA
	prev, _ := s.cp.Registry().State(want)
	if err := s.cp.ReportDead(want); err != nil {
		s.fail("condemn-error", "lease %d shard %d: fpga %d: %v", id, shard, want, err)
		return
	}
	if prev != cluster.Dead {
		s.expCondemned++
	}
	s.tracef("condemn lease=%d shard=%d fpga=%d prev=%s", id, shard, want, prev)
}

// settle is one post-schedule quiesce round: every surviving device
// beats, then the control plane ticks, so pending evacuations and
// backoffs resolve before the stranded check.
func (s *Stack) settle() {
	if s.violation != nil {
		return
	}
	s.settling = true
	if !s.beatAll(false) {
		return
	}
	s.tick("settle")
	s.checkInvariants()
}

// checkStranded runs once after the settle rounds: no lease may still
// hold blocks on a dead or draining device, unless its evacuation
// verifiably failed for lack of capacity during settle (the control
// plane's correct answer then is to keep the lease and keep retrying).
func (s *Stack) checkStranded() {
	reg := s.cp.Registry()
	for _, l := range s.svc.ReadLeases(&s.leases) {
		if s.excused[l.ID] {
			continue
		}
		for _, pl := range l.Placements {
			if reg.Evacuate(pl.FPGA) {
				st, _ := reg.State(pl.FPGA)
				s.fail("stranded-placement",
					"lease %d still holds %d blocks on %s device %d after settle", l.ID, pl.Blocks, st, pl.FPGA)
				return
			}
		}
	}
}

// checkInvariants audits the stack against the model after an event and
// reports whether it is still green. First breach wins: once one is
// recorded nothing is audited again.
func (s *Stack) checkInvariants() bool {
	if s.violation != nil {
		return false
	}
	s.auditInvariants()
	return s.violation == nil
}

// auditInvariants runs every family in InvariantFamilies order, stopping
// at the first breach.
func (s *Stack) auditInvariants() {
	leases := s.svc.ReadLeases(&s.leases)

	// No lost or duplicated leases: the service's live set must equal the
	// model's, exactly.
	clear(s.liveSet)
	for _, id := range s.live {
		s.liveSet[id] = true
	}
	if len(leases) != len(s.live) {
		s.fail("lease-conservation", "service has %d leases, model has %d", len(leases), len(s.live))
		return
	}
	for _, l := range leases {
		if !s.liveSet[l.ID] {
			s.fail("lease-conservation", "service lease %d not in model", l.ID)
			return
		}
	}

	// Exactly one placement per piece, no device used twice by one lease,
	// and every depth on the layer's feasible ladder.
	for _, l := range leases {
		if len(l.Placements) != l.Depth {
			s.fail("placement-shape", "lease %d: %d placements at depth %d", l.ID, len(l.Placements), l.Depth)
			return
		}
		for i, pl := range l.Placements {
			if slices.ContainsFunc(l.Placements[:i], func(p rms.Placement) bool { return p.FPGA == pl.FPGA }) {
				s.fail("duplicate-device", "lease %d holds device %d twice", l.ID, pl.FPGA)
				return
			}
		}
		ladder, err := s.svc.FeasibleDepths(l.Spec)
		if err != nil {
			s.fail("feasible-depth", "FeasibleDepths(%v): %v", l.Spec, err)
			return
		}
		if !slices.Contains(ladder, l.Depth) {
			s.fail("feasible-depth", "lease %d at depth %d, ladder is %v", l.ID, l.Depth, ladder)
			return
		}
	}
	// No stranded or double-freed blocks: the service audits its own
	// placements against the controller's occupancy.
	if err := s.svc.CheckInvariants(); err != nil {
		s.fail("placement-conservation", "%v", err)
		return
	}

	// Engine/tombstone consistency in the data plane, against the live set
	// lease-conservation has just proved equal to the service's.
	if err := s.dp.CheckInvariants(func(id int) bool { return s.liveSet[id] }); err != nil {
		s.fail("engine-tombstone", "%v", err)
		return
	}

	// One reading of every counter per audit; each family below checks its
	// deltas since the Stack's birth against the event model.
	s.vals.Read()
	d := s.vals.Sub(s.base)
	exact := func(invariant string, v *expvar.Int, want int64) bool {
		got := d.Int(v)
		if got != want {
			s.fail(invariant, "%s moved %d, events account for %d", metrics.Name(v), got, want)
		}
		return got == want
	}

	// Quota conservation: the service's per-tenant ownership and usage
	// must match the model's lease-owner map exactly, and no tenant may
	// ever hold more than any configured quota grants.
	if s.reg != nil {
		clear(s.owned) // reused per audit: a stale count breaks quota-conservation
		for _, l := range leases {
			if want := s.leaseTenant[l.ID]; l.Tenant != want {
				s.fail("quota-conservation",
					"lease %d owned by %q, model says %q", l.ID, l.Tenant, want)
				return
			}
			if l.Tenant != "" {
				s.owned[l.Tenant]++
			}
		}
		for _, t := range s.tenants {
			lu, du, bu := s.svc.TenantUsage(t.ID)
			if lu != s.owned[t.ID] {
				s.fail("quota-conservation",
					"tenant %s: service reports %d leases, model owns %d", t.ID, lu, s.owned[t.ID])
				return
			}
			if q := t.Quotas.MaxLeases; q > 0 && lu > q {
				s.fail("quota-conservation", "tenant %s holds %d leases over quota %d", t.ID, lu, q)
				return
			}
			if q := t.Quotas.MaxDevices; q > 0 && du > q {
				s.fail("quota-conservation", "tenant %s holds %d devices over quota %d", t.ID, du, q)
				return
			}
			if q := t.Quotas.MaxBlocks; q > 0 && bu > q {
				s.fail("quota-conservation", "tenant %s holds %d blocks over quota %d", t.ID, bu, q)
				return
			}
		}

		// Per-tenant counter accounting: every tenant-labelled expvar
		// delta must equal what the attributed events predict, the fair
		// queue must drain to zero depth between events, and nothing in
		// the sim path may trip the auth counters (no HTTP runs here).
		for _, t := range s.tenants {
			id := t.ID
			for _, c := range []struct {
				m    *expvar.Map
				want int64
			}{
				{metrics.TenantRequests, s.expTenantReq[id]},
				{metrics.TenantServed, s.expTenantServed[id]},
				{metrics.TenantRejections, s.expTenantRej[id]},
				{metrics.TenantQueueDepth, 0},
				{metrics.TenantAuthFailures, 0},
			} {
				if got := d.Tenant(c.m, id); got != c.want {
					s.fail("tenant-accounting",
						"tenant %s: %s moved %d, events account for %d", id, metrics.Name(c.m), got, c.want)
					return
				}
			}
		}
	}

	// Artifact-cache conservation: the compile runs once per distinct
	// compile plan ever attempted (the singleflight memo absorbs every
	// repeat, including deploys later shed on quota or capacity), and
	// nothing may be dropped as corrupt.
	if st, want := s.store.Stats(), int64(len(s.keySeen)); st.Computes != want || st.CorruptDropped != 0 {
		s.fail("artifact-cache",
			"computes=%d corrupt=%d, want exactly %d compiles and 0 corrupt drops", st.Computes, st.CorruptDropped, want)
		return
	}

	// Snapshot conservation: every event joins its in-flight work before
	// returning, so between events no stream is mid-checkpoint — every
	// capture must have found its restore (explicit preemption, automatic
	// preemption and transplant alike; a capture with no restore is a
	// dropped stream restarting from scratch), preemption evictions must
	// pair one-to-one with preemption restores, and defrag moves must
	// match the event model exactly. Drain checkpoints are deliberately
	// outside this family: they are terminal by design (no restore ever
	// follows), so they live in a separate counter. Checked before the
	// generic counter families because a dropped checkpoint also skews
	// batch and admission accounting downstream — the root cause should
	// name the violation.
	if c, rs := d.Int(metrics.SnapshotCaptures), d.Int(metrics.SnapshotRestores); c != rs {
		s.fail("snapshot-conservation",
			"%s moved %d, %s %d: a checkpoint was captured and never restored",
			metrics.Name(metrics.SnapshotCaptures), c, metrics.Name(metrics.SnapshotRestores), rs)
		return
	}
	if ev, rs := d.Int(metrics.PreemptEvictions), d.Int(metrics.PreemptRestores); ev != rs {
		s.fail("snapshot-conservation", "%s moved %d, %s %d",
			metrics.Name(metrics.PreemptEvictions), ev, metrics.Name(metrics.PreemptRestores), rs)
		return
	}
	if !exact("snapshot-conservation", metrics.DefragMoves, s.expDefragMoves) {
		return
	}

	// Counter conservation: every expvar delta must equal what the event
	// model predicts (batches are bounded, not pinned: riders per batch
	// depend on goroutine interleaving, which the results never do).
	for _, c := range []struct {
		v    *expvar.Int
		want int64
	}{
		{metrics.LeasesActive, int64(len(s.live))},
		{metrics.InfersServed, s.expInfers},
		{metrics.Migrations, s.expMigrations},
		{metrics.MigrationFailures, s.expMigFailures},
		{metrics.HeartbeatMisses, s.expHbMisses},
		{metrics.DevicesCondemned, s.expCondemned},
	} {
		if !exact("counter-conservation", c.v, c.want) {
			return
		}
	}
	if bf := d.Int(metrics.BatchesFlushed); bf < s.expInferEvents || bf > s.expInfers {
		s.fail("batch-conservation", "%s moved %d, outside [%d, %d]",
			metrics.Name(metrics.BatchesFlushed), bf, s.expInferEvents, s.expInfers)
		return
	}

	// Slot conservation in the continuous plane: every infer event joins
	// its requests before returning and retirement settles all accounting
	// before answering, so between events no stream is resident — the
	// active-slot gauge must be exactly back at its baseline (a residue is
	// a leaked slot: admitted capacity that never came back), and each
	// served request accounts for exactly one slot admission.
	if got := d.Int(metrics.SlotsActive); got != 0 {
		s.fail("slot-conservation", "%s residue %d with no request in flight",
			metrics.Name(metrics.SlotsActive), got)
		return
	}
	if !exact("slot-conservation", metrics.Admissions, s.expInfers) {
		return
	}
	if occ, rounds := d.Int(metrics.SlotRoundOccupancy), d.Int(metrics.SlotRounds); occ < rounds {
		s.fail("slot-conservation", "%s %d below %s %d: a round ran with an empty cohort",
			metrics.Name(metrics.SlotRoundOccupancy), occ, metrics.Name(metrics.SlotRounds), rounds)
		return
	}
}

// inputsFor derives a request's input tensor from (lease, seed) alone, so
// replaying the pair replays the exact bits. Seed resets the Stack's one
// generator exactly as NewSource would build a fresh one.
func (s *Stack) inputsFor(spec kernels.LayerSpec, leaseID int, seed int64) [][]float64 {
	s.inputRng.Seed(seed<<20 ^ int64(leaseID))
	h := spec.Hidden
	back, in := make([]float64, spec.TimeSteps*h), make([][]float64, spec.TimeSteps)
	for t := range in {
		in[t] = back[t*h : (t+1)*h]
		for i := range in[t] {
			in[t][i] = s.inputRng.NormFloat64()
		}
	}
	return in
}

// hashOutputs folds an output tensor's exact bits, so equal hashes mean
// bit-identical results.
func hashOutputs(outs [][]float64) uint64 {
	hsh := fnv.New64a()
	var b [8]byte
	for _, row := range outs {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			hsh.Write(b[:])
		}
	}
	return hsh.Sum64()
}

func hashTrace(trace []string) uint64 {
	hsh := fnv.New64a()
	for _, line := range trace {
		hsh.Write([]byte(line))
		hsh.Write([]byte{'\n'})
	}
	return hsh.Sum64()
}
