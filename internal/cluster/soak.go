package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/scaleout"
	"mlvfpga/internal/tenant"
)

// AutoDevice, used for KillDevice or DrainDevice, targets a device that
// actually hosts a lease at script time (the interesting victim).
const AutoDevice = -2

// SoakOptions scripts a failure-injection soak: concurrent clients serve
// real inferences through the data plane while the control loop runs,
// one device is killed mid-run (its heartbeats stop) and another is
// drained. The run passes only if every accepted request completes and no
// lease is lost.
type SoakOptions struct {
	// Cluster is the fleet shape (default: the paper's 4-device cluster).
	Cluster resource.ClusterSpec
	// Spec is the served layer (default: a small LSTM, kept small so the
	// soak's time goes to concurrency, not arithmetic).
	Spec kernels.LayerSpec
	// Leases is the number of concurrently served deployments.
	Leases int
	// Requests is the per-lease request count.
	Requests int
	// Clients is the per-lease client concurrency (the burst width that
	// drives queue depth and hence scale-ups).
	Clients int
	// Steps is the number of scripted control-loop iterations; ticking
	// continues past Steps until the request load drains.
	Steps int
	// KillAtStep stops a device's heartbeats at this control step; the
	// registry times it out to Suspect then Dead (-1 disables).
	KillAtStep int
	// KillDevice is the device whose heartbeats stop (AutoDevice picks a
	// lease-hosting device).
	KillDevice int
	// DrainAtStep drains DrainDevice at this step (-1 disables).
	DrainAtStep int
	// DrainDevice is the administratively drained device (AutoDevice
	// picks a lease-hosting device distinct from the killed one).
	DrainDevice int
	// Tenants, when non-empty, labels the load: leases are deployed
	// round-robin across the tenants (quota-checked) and every request is
	// submitted through InferAs, so the soak drives the fair-share queue
	// and per-tenant accounting under churn. Empty keeps the historical
	// anonymous load.
	Tenants []tenant.Tenant
	// Seed drives the input generator.
	Seed int64
}

// DefaultSoakOptions is the acceptance scenario: 4 devices, one killed
// mid-run, another drained, with enough client concurrency to trigger
// depth scale-ups.
func DefaultSoakOptions() SoakOptions {
	return SoakOptions{
		Cluster:     resource.PaperCluster(),
		Spec:        kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 4},
		Leases:      2,
		Requests:    160,
		Clients:     16,
		Steps:       24,
		KillAtStep:  4,
		KillDevice:  AutoDevice,
		DrainAtStep: 8,
		DrainDevice: AutoDevice,
		Tenants: []tenant.Tenant{
			{ID: "soak-lat", Key: "soak-lat-key", Class: tenant.Latency},
			{ID: "soak-bat", Key: "soak-bat-key", Class: tenant.Batch},
		},
		Seed: 1,
	}
}

// ShortSoakOptions shrinks the run for CI's -short mode while still
// reaching the Dead transition (kill early, keep enough steps for the
// heartbeat timers to expire).
func ShortSoakOptions() SoakOptions {
	o := DefaultSoakOptions()
	o.Requests = 48
	o.Steps = 16
	o.KillAtStep = 1
	o.DrainAtStep = 2
	return o
}

// SoakResult is the harness's verdict plus the evidence.
type SoakResult struct {
	Accepted  int `json:"accepted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// LostLeases counts leases that disappeared without a Release — must
	// be zero.
	LostLeases int `json:"lost_leases"`
	// Migrations is the sum over surviving leases of their migration
	// counters (evacuations plus depth changes).
	Migrations int `json:"migrations"`
	// MaxDepth is the deepest rung any lease reached during the run
	// (depth adaptation evidence: > 1 means the burst scaled something).
	MaxDepth int `json:"max_depth"`
	// KilledDevice and DrainedDevice are the resolved victims.
	KilledDevice  int `json:"killed_device"`
	DrainedDevice int `json:"drained_device"`
	// Stranded counts placements still sitting on dead or draining
	// devices at the end of the run — must be zero: every lease either
	// evacuated or re-partitioned onto healthy members.
	Stranded int `json:"stranded"`
	// Reports is the full control-loop decision log.
	Reports []*TickReport `json:"reports"`
	// TickLatencies are the wall-clock costs of each control pass,
	// sorted ascending.
	TickLatencies []time.Duration `json:"tick_latencies_ns"`
	// Devices is the final fleet snapshot.
	Devices []DeviceInfo `json:"devices"`
	// TenantCompleted breaks Completed down by tenant id (only populated
	// for tenant-labeled runs). Σ TenantCompleted == Completed.
	TenantCompleted map[string]int `json:"tenant_completed,omitempty"`
}

// TickLatencyPercentile returns the p-th percentile control-pass latency.
func (r *SoakResult) TickLatencyPercentile(p float64) time.Duration {
	if len(r.TickLatencies) == 0 {
		return 0
	}
	i := int(p * float64(len(r.TickLatencies)-1))
	return r.TickLatencies[i]
}

// RunSoak executes the scripted soak. The control plane runs on a fake
// clock advanced one heartbeat interval per step, so every health
// transition and backoff decision is a deterministic function of the
// script; the serving load rides real goroutines underneath.
func RunSoak(o SoakOptions) (*SoakResult, error) {
	if o.Cluster == nil {
		o.Cluster = resource.PaperCluster()
	}
	if o.Spec.Hidden == 0 {
		o.Spec = DefaultSoakOptions().Spec
	}
	db := rms.NewDatabase(rms.Flexible, perf.DefaultParams(), scaleout.DefaultOptions())
	svc, err := rms.NewService(o.Cluster, db)
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
	cfg.RetryBackoff = 100 * time.Millisecond
	// The engine queue saturates at MaxBatch×Machines entries, so the
	// scale-up trigger must sit below that ceiling to ever observe a
	// backlog.
	cfg.Planner.ScaleUpQueue = 3
	clk := NewFakeClock(time.Unix(0, 0))
	cp := New(clk, cfg, svc, dp)

	if len(o.Tenants) > 0 {
		reg, err := tenant.NewRegistry(o.Tenants...)
		if err != nil {
			return nil, fmt.Errorf("soak: %w", err)
		}
		svc.SetTenants(reg)
		dp.SetTenants(reg)
	}
	var leases []*rms.Lease
	leaseTenant := map[int]string{}
	for i := 0; i < o.Leases; i++ {
		po := rms.PlaceOptions{}
		if len(o.Tenants) > 0 {
			po.Tenant = o.Tenants[i%len(o.Tenants)].ID
		}
		l, err := svc.DeployWith(o.Spec, po)
		if err != nil {
			return nil, fmt.Errorf("soak: deploying lease %d: %w", i, err)
		}
		leases = append(leases, l)
		leaseTenant[l.ID] = l.Tenant
	}
	resolveVictims(&o, leases)
	if o.DrainDevice == -1 && o.DrainAtStep >= 0 {
		// Every lease lives on the killed device: drain any other member.
		for _, d := range cp.Registry().Snapshot() {
			if d.ID != o.KillDevice {
				o.DrainDevice = d.ID
				break
			}
		}
	}
	res := &SoakResult{MaxDepth: 1, KilledDevice: o.KillDevice, DrainedDevice: o.DrainDevice}

	var accepted, completed, failed atomic.Int64
	var tcMu sync.Mutex
	tenantCompleted := map[string]int{}
	var wg sync.WaitGroup
	for li, l := range leases {
		for c := 0; c < o.Clients; c++ {
			wg.Add(1)
			go func(leaseID int, who string, worker int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(o.Seed + int64(worker)*7919 + int64(leaseID)))
				n := o.Requests / o.Clients
				for i := 0; i < n; i++ {
					inputs := make([][]float64, o.Spec.TimeSteps)
					for t := range inputs {
						x := make([]float64, o.Spec.Hidden)
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
						if who != "" {
							tcMu.Lock()
							tenantCompleted[who]++
							tcMu.Unlock()
						}
					}
				}
			}(l.ID, leaseTenant[l.ID], li*o.Clients+c)
		}
	}

	beat := cfg.Registry.SuspectAfter / 3 // the nominal heartbeat interval
	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()
	// Keep ticking until the clients finish, the scripted steps have run,
	// and a cooldown of idle ticks has let scaled-up leases walk back down
	// the ladder.
	cooldown := 3*cfg.Planner.ScaleDownIdleTicks + 2
	for step := 0; ; step++ {
		select {
		case <-clientsDone:
			if step >= o.Steps {
				cooldown--
			}
		default:
		}
		if cooldown < 0 {
			break
		}
		clk.Advance(beat)
		if o.DrainAtStep >= 0 && step == o.DrainAtStep && o.DrainDevice >= 0 {
			if err := cp.Drain(o.DrainDevice); err != nil {
				return nil, err
			}
		}
		for _, d := range cp.Registry().Snapshot() {
			if o.KillAtStep >= 0 && step >= o.KillAtStep && d.ID == o.KillDevice {
				continue // the killed device goes silent
			}
			_ = cp.Heartbeat(d.ID)
		}
		start := time.Now()
		rep := cp.Tick()
		res.TickLatencies = append(res.TickLatencies, time.Since(start))
		res.Reports = append(res.Reports, rep)
		for _, l := range svc.Leases() {
			if l.Depth > res.MaxDepth {
				res.MaxDepth = l.Depth
			}
		}
		// Pace the ticks so the serving load evolves between control
		// passes (the fake clock still advances one beat per tick).
		time.Sleep(2 * time.Millisecond)
	}

	res.Accepted = int(accepted.Load())
	res.Completed = int(completed.Load())
	res.Failed = int(failed.Load())
	if len(tenantCompleted) > 0 {
		res.TenantCompleted = tenantCompleted
	}
	for _, l := range svc.Leases() {
		res.Migrations += l.Migrations
	}
	res.LostLeases = o.Leases - len(svc.Leases())
	res.Devices = cp.Registry().Snapshot()
	for _, l := range svc.Leases() {
		for _, pl := range l.Placements {
			if cp.Registry().Evacuate(pl.FPGA) {
				res.Stranded++
			}
		}
	}
	sort.Slice(res.TickLatencies, func(i, j int) bool { return res.TickLatencies[i] < res.TickLatencies[j] })

	for _, l := range leases {
		if err := svc.Release(l.ID); err != nil {
			return nil, fmt.Errorf("soak: releasing lease %d: %w", l.ID, err)
		}
	}
	return res, nil
}

// resolveVictims replaces AutoDevice markers with devices that actually
// host leases, so the injected failures hit serving placements.
func resolveVictims(o *SoakOptions, leases []*rms.Lease) {
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
	pick := func(avoid int) int {
		for _, h := range homes {
			if h != avoid {
				return h
			}
		}
		return -1
	}
	if o.KillDevice == AutoDevice {
		o.KillDevice = pick(-1)
	}
	if o.DrainDevice == AutoDevice {
		o.DrainDevice = pick(o.KillDevice)
	}
}
