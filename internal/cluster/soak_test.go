package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/scaleout"
	"mlvfpga/internal/tenant"
)

func rmsTestDatabase() *rms.Database {
	return rms.NewDatabase(rms.Flexible, perf.DefaultParams(), scaleout.DefaultOptions())
}

// TestSoakFailureInjection is the acceptance scenario: real serving
// across 4 simulated devices while one is killed mid-run and another is
// drained. Every accepted request must complete and no lease may be lost.
func TestSoakFailureInjection(t *testing.T) {
	o := defaultSoakOptions()
	if testing.Short() {
		o = shortSoakOptions()
	}
	res, err := runSoak(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Completed != res.Accepted {
		t.Fatalf("lost requests: accepted %d, completed %d, failed %d",
			res.Accepted, res.Completed, res.Failed)
	}
	if res.LostLeases != 0 {
		t.Fatalf("%d leases lost", res.LostLeases)
	}
	// The killed device must have timed out to Dead and the drained one
	// must be Draining, with no lease left on either by the end.
	states := map[int]State{}
	for _, d := range res.Devices {
		states[d.ID] = d.State
	}
	if states[res.KilledDevice] != Dead {
		t.Fatalf("killed device %d ended %v, want dead", res.KilledDevice, states[res.KilledDevice])
	}
	if res.DrainedDevice >= 0 && states[res.DrainedDevice] != Draining {
		t.Fatalf("drained device %d ended %v, want draining", res.DrainedDevice, states[res.DrainedDevice])
	}
	// The end-state invariant: whether by evacuation or by a depth change
	// that re-placed it, no lease may still touch a dead or draining
	// device when the run settles.
	if res.Stranded != 0 {
		t.Fatalf("%d placements stranded on dead/draining devices", res.Stranded)
	}
	if res.Migrations == 0 {
		t.Fatal("no migrations recorded on surviving leases")
	}
	t.Logf("soak: %d requests, %d migrations, max depth %d", res.Completed, res.Migrations, res.MaxDepth)
}

// TestSoakDepthScalesUnderBurst asserts the load-driven part end to end:
// the client burst drives a lease deeper than its deploy depth, and the
// decision log records both directions.
func TestSoakDepthScalesUnderBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("burst soak needs the full request count")
	}
	o := defaultSoakOptions()
	o.KillAtStep, o.DrainAtStep = -1, -1 // isolate the load signal
	// The scale-up trigger needs one control tick to see a >=3-deep
	// queue: each client-phase tick waits for one, and the requests keep
	// the client phase long enough for several.
	o.Requests = 1280
	o.Backlog = true
	res, err := runSoak(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d requests failed", res.Failed)
	}
	if res.MaxDepth < 2 {
		t.Fatalf("burst never scaled any lease deeper: max depth %d", res.MaxDepth)
	}
	ups, downs := 0, 0
	for _, rep := range res.Reports {
		for _, ev := range rep.Events {
			if ev.Err != "" {
				continue
			}
			switch ev.Kind {
			case "scale_up":
				ups++
			case "scale_down":
				downs++
			}
		}
	}
	if ups == 0 || downs == 0 {
		t.Fatalf("depth did not adapt both ways: %d scale-ups, %d scale-downs", ups, downs)
	}
}

// TestControlLoopDeterministic replays an identical scripted run — fake
// clock, scripted loads, scripted failures — twice and requires
// bit-identical decision logs.
func TestControlLoopDeterministic(t *testing.T) {
	run := func() []byte {
		db := rmsTestDatabase()
		svc, err := rms.NewService(resource.PaperCluster(), db)
		if err != nil {
			t.Fatal(err)
		}
		clk := NewFakeClock(time.Unix(42, 0))
		fp := newFakePlane()
		cp := New(clk, DefaultConfig(), svc, fp)
		var ids []int
		for i := 0; i < 3; i++ {
			l, err := svc.Deploy(testSpec())
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, l.ID)
		}
		rng := rand.New(rand.NewSource(7))
		var log []TickReport
		for step := 0; step < 40; step++ {
			clk.Advance(500 * time.Millisecond)
			for _, d := range cp.Registry().Snapshot() {
				if step >= 10 && d.ID == 1 {
					continue // scripted kill
				}
				_ = cp.Heartbeat(d.ID)
			}
			if step == 20 {
				_ = cp.Drain(3)
			}
			for _, id := range ids {
				// Scripted load: pseudo-random bursts from a fixed seed.
				q := 0
				if rng.Intn(3) == 0 {
					q = 10 + rng.Intn(10)
				}
				fp.setLoad(id, rms.LoadStats{QueueDepth: q})
			}
			log = append(log, cp.Tick())
		}
		b, err := json.Marshal(log)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("scripted control runs diverged:\n%s\n---\n%s", a, b)
	}
}

// The soak harness: concurrent clients serve real inferences through the
// data plane while the control loop runs, one lease-hosting device is
// killed mid-run (its heartbeats stop) and another is drained. A run
// passes only if every accepted request completes and no lease is lost.

// What no soak test varies: the fleet (the paper's 4-device cluster), a
// layer kept small so the soak's time goes to concurrency, not arithmetic,
// two leases each hammered by a burst wide enough to drive queue depth
// and hence scale-ups.
const (
	soakLeases  = 2
	soakClients = 16
	soakSeed    = 1
)

var (
	soakSpec = kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 4}
	// Leases are deployed round-robin across these tenants (quota-checked)
	// and every request goes through InferAs, so the soak drives the
	// fair-share queue and per-tenant accounting under churn.
	soakTenants = []tenant.Tenant{
		{ID: "soak-lat", Key: "soak-lat-key", Class: tenant.Latency},
		{ID: "soak-bat", Key: "soak-bat-key", Class: tenant.Batch},
	}
)

// soakOptions scripts one soak.
type soakOptions struct {
	// Requests is the per-lease request count.
	Requests int
	// Steps is the number of scripted control-loop iterations; ticking
	// continues past Steps until the request load drains.
	Steps int
	// KillAtStep stops a lease-hosting device's heartbeats at this control
	// step; the registry times it out to Suspect then Dead (-1 disables).
	KillAtStep int
	// DrainAtStep drains another lease-hosting device at this step (-1
	// disables).
	DrainAtStep int
	// Backlog holds each client-phase tick until a lease's queue is at
	// the planner's scale-up depth; otherwise a tick also runs once a
	// request was answered since the last.
	Backlog bool
}

// loadGate is the soak's data plane as the control plane sees it: a tick
// reads each lease's load as the gate last sampled it, so the tick a
// backlog released acts on that backlog, however fast it drains.
type loadGate struct {
	*rms.DataPlane
	seen map[int]rms.LoadStats
}

func (g *loadGate) Load(leaseID int) (rms.LoadStats, bool) {
	load, ok := g.seen[leaseID]
	return load, ok
}

// sample reads every lease's load: hot reports a queue at depth, served
// sums the engines' answered counts.
func (g *loadGate) sample(leases []*rms.Lease, depth int) (hot bool, served int64) {
	clear(g.seen)
	for _, l := range leases {
		if load, ok := g.DataPlane.Load(l.ID); ok {
			g.seen[l.ID] = load
			hot, served = hot || load.QueueDepth >= depth, served+load.Served
		}
	}
	return hot, served
}

// defaultSoakOptions is the acceptance scenario: one device killed
// mid-run, another drained.
func defaultSoakOptions() soakOptions {
	return soakOptions{Requests: 160, Steps: 24, KillAtStep: 4, DrainAtStep: 8}
}

// shortSoakOptions shrinks the run for CI's -short mode while still
// reaching the Dead transition (kill early, keep enough steps for the
// heartbeat timers to expire).
func shortSoakOptions() soakOptions {
	return soakOptions{Requests: 48, Steps: 16, KillAtStep: 1, DrainAtStep: 2}
}

// soakResult is the harness's verdict plus the evidence.
type soakResult struct {
	Accepted, Completed, Failed int
	// LostLeases counts leases that disappeared without a Release — must
	// be zero.
	LostLeases int
	// Migrations is the sum over surviving leases of their migration
	// counters (evacuations plus depth changes).
	Migrations int
	// MaxDepth is the deepest rung any lease reached during the run
	// (depth adaptation evidence: > 1 means the burst scaled something).
	MaxDepth int
	// KilledDevice and DrainedDevice are the victims (-1: none).
	KilledDevice, DrainedDevice int
	// Stranded counts placements still sitting on dead or draining
	// devices at the end of the run — must be zero: every lease either
	// evacuated or re-partitioned onto healthy members.
	Stranded int
	// Reports is the full control-loop decision log.
	Reports []TickReport
	// Devices is the final fleet snapshot.
	Devices []DeviceInfo
}

// runSoak executes the scripted soak. The control plane runs on a fake
// clock advanced one heartbeat interval per step, so every health
// transition and backoff decision is a deterministic function of the
// script; the serving load rides real goroutines underneath.
func runSoak(o soakOptions) (*soakResult, error) {
	svc, err := rms.NewService(resource.PaperCluster(), rmsTestDatabase())
	if err != nil {
		return nil, err
	}
	// One machine and small batches to start: the client burst piles up in
	// the queue, so depth scale-ups (which widen the machine pool) have
	// observable work to absorb.
	iopts := rms.DefaultInferOptions()
	iopts.MaxBatch = 4
	iopts.Machines = 1
	dp := rms.NewDataPlane(svc, iopts)
	defer dp.Close()

	cfg := DefaultConfig()
	// The engine queue saturates at MaxBatch×Machines entries, so the
	// scale-up trigger must sit below that ceiling to ever observe a
	// backlog.
	cfg.Planner.ScaleUpQueue = 3
	clk := NewFakeClock(time.Unix(0, 0))
	gate := &loadGate{DataPlane: dp, seen: map[int]rms.LoadStats{}}
	cp := New(clk, cfg, svc, gate)

	reg, err := tenant.NewRegistry(soakTenants...)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	svc.SetTenants(reg)
	dp.SetTenants(reg)
	var leases []*rms.Lease
	for i := 0; i < soakLeases; i++ {
		l, err := svc.DeployWith(soakSpec, rms.PlaceOptions{Tenant: soakTenants[i%len(soakTenants)].ID})
		if err != nil {
			return nil, fmt.Errorf("soak: deploying lease %d: %w", i, err)
		}
		leases = append(leases, l)
	}
	kill, drain := soakVictims(leases)
	if drain == -1 {
		// Every lease lives on the killed device: drain any other member.
		for _, d := range cp.Registry().Snapshot() {
			if d.ID != kill {
				drain = d.ID
				break
			}
		}
	}
	if o.KillAtStep < 0 {
		kill = -1
	}
	if o.DrainAtStep < 0 {
		drain = -1
	}
	res := &soakResult{MaxDepth: 1, KilledDevice: kill, DrainedDevice: drain}

	var accepted, completed, failed atomic.Int64
	var wg sync.WaitGroup
	for li, l := range leases {
		for c := 0; c < soakClients; c++ {
			wg.Add(1)
			go func(leaseID int, who string, worker int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(soakSeed + int64(worker)*7919 + int64(leaseID)))
				for i := 0; i < o.Requests/soakClients; i++ {
					inputs := make([][]float64, soakSpec.TimeSteps)
					for t := range inputs {
						x := make([]float64, soakSpec.Hidden)
						for j := range x {
							x[j] = rng.Float64()*2 - 1
						}
						inputs[t] = x
					}
					accepted.Add(1)
					if _, err := dp.InferAs(who, leaseID, inputs); err != nil {
						failed.Add(1)
					} else {
						completed.Add(1)
					}
				}
			}(l.ID, l.Tenant, li*soakClients+c)
		}
	}

	beat := HeartbeatInterval
	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()
	// Keep ticking until the clients finish, the scripted steps have run,
	// and a cooldown of idle ticks has let scaled-up leases walk back down
	// the ladder.
	cooldown := 3*cfg.Planner.ScaleDownIdleTicks + 2
	var served int64
	for step := 0; ; step++ {
		// Client-phase ticks wait on the plane, not the wall clock, so the
		// serving load moves between control passes (see Backlog).
		done := false
		for {
			select {
			case <-clientsDone:
				done = true
			default:
			}
			hot, n := gate.sample(leases, cfg.Planner.ScaleUpQueue)
			if done || hot || (!o.Backlog && n != served) {
				served = n
				break
			}
			runtime.Gosched()
		}
		if done && step >= o.Steps {
			cooldown--
		}
		if cooldown < 0 {
			break
		}
		clk.Advance(beat)
		if step == o.DrainAtStep && drain >= 0 {
			if err := cp.Drain(drain); err != nil {
				return nil, err
			}
		}
		for _, d := range cp.Registry().Snapshot() {
			if d.ID == kill && step >= o.KillAtStep {
				continue // the killed device goes silent
			}
			_ = cp.Heartbeat(d.ID)
		}
		res.Reports = append(res.Reports, cp.Tick())
		for _, l := range svc.Leases() {
			if l.Depth > res.MaxDepth {
				res.MaxDepth = l.Depth
			}
		}
	}

	res.Accepted = int(accepted.Load())
	res.Completed = int(completed.Load())
	res.Failed = int(failed.Load())
	for _, l := range svc.Leases() {
		res.Migrations += l.Migrations
		for _, pl := range l.Placements {
			if cp.Registry().Evacuate(pl.FPGA) {
				res.Stranded++
			}
		}
	}
	res.LostLeases = soakLeases - len(svc.Leases())
	res.Devices = cp.Registry().Snapshot()

	for _, l := range leases {
		if err := svc.Release(l.ID); err != nil {
			return nil, fmt.Errorf("soak: releasing lease %d: %w", l.ID, err)
		}
	}
	return res, nil
}

// soakVictims picks the devices to kill and to drain among those that
// actually host leases, so the injected failures hit serving placements:
// the lowest-numbered home is killed, the next one drained (-1 when every
// lease shares one device).
func soakVictims(leases []*rms.Lease) (kill, drain int) {
	homes := []int{}
	seen := map[int]bool{}
	for _, l := range leases {
		for _, pl := range l.Placements {
			if !seen[pl.FPGA] {
				seen[pl.FPGA] = true
				homes = append(homes, pl.FPGA)
			}
		}
	}
	sort.Ints(homes)
	if len(homes) == 1 {
		return homes[0], -1
	}
	return homes[0], homes[1]
}
