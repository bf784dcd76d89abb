package cluster

import (
	"cmp"
	"errors"
	"maps"
	"slices"
	"sync"
	"time"

	"mlvfpga/internal/metrics"
	"mlvfpga/internal/rms"
)

// LoadSource supplies a lease's live serving load. *rms.DataPlane
// implements it; tests and the soak harness script their own.
type LoadSource interface {
	Load(leaseID int) (rms.LoadStats, bool)
}

// Resizer rebuilds a lease's data-plane machine pool at its depth after
// a depth change. *rms.DataPlane implements it.
type Resizer interface {
	Resize(leaseID int) error
}

// Config tunes the control plane.
type Config struct {
	// Planner tunes depth selection.
	Planner PlannerConfig
}

const (
	// migrationBudget bounds migrations attempted per tick (evacuations,
	// rebalances and defrag moves combined), so a mass failure cannot
	// stampede the fleet.
	migrationBudget = 4
	// retryBackoff is the initial wait after a failed migration before the
	// lease is retried; it doubles per consecutive failure up to maxBackoff.
	retryBackoff = 250 * time.Millisecond
	maxBackoff   = 4 * time.Second
)

// DefaultConfig returns serving defaults.
func DefaultConfig() Config {
	return Config{Planner: DefaultPlannerConfig()}
}

// Event is one control action taken (or attempted) during a tick.
type Event struct {
	Lease int `json:"lease"`
	// Kind is "evacuate", "scale_up", "scale_down" or "defrag".
	Kind      string `json:"kind"`
	FromDepth int    `json:"from_depth"`
	ToDepth   int    `json:"to_depth"`
	// Err is set when the action failed: a failed migration (the lease
	// backs off and retries on a later tick), or a landed one whose
	// machine-pool resize failed (the migration stands).
	Err string `json:"err,omitempty"`
}

// TickReport is the deterministic record of one control-loop pass.
type TickReport struct {
	Tick        int          `json:"tick"`
	Transitions []Transition `json:"transitions,omitempty"`
	Events      []Event      `json:"events,omitempty"`
	// Deferred counts actions skipped because the migration budget was
	// exhausted or the lease was in backoff.
	Deferred int `json:"deferred,omitempty"`
}

// leaseState is the control plane's per-lease memory between ticks.
type leaseState struct {
	idleTicks    int
	backoff      time.Duration
	backoffUntil time.Time
}

// ControlPlane is the fleet controller: it owns the device registry,
// installs its health view as the admission service's placement filter,
// and on every Tick evacuates dead/draining devices and re-partitions
// leases against their live load.
type ControlPlane struct {
	clock Clock
	cfg   Config
	reg   *Registry
	svc   *rms.Service
	loads LoadSource
	sizer Resizer

	mu      sync.Mutex
	leases  map[int]*leaseState
	ticks   int
	defrags int

	// A pass's scratch, refilled by each Tick or Defrag under mu.
	view rms.LeaseView
}

// New builds a control plane over the admission service, seeding the
// registry from the service's device inventory and installing the
// health-based placement filter. dp supplies load signals and resizing;
// pass the *rms.DataPlane for both (or nil to run placement-only).
func New(clock Clock, cfg Config, svc *rms.Service, dp interface {
	LoadSource
	Resizer
}) *ControlPlane {
	def := DefaultConfig()
	if cfg.Planner.ScaleUpQueue <= 0 {
		cfg.Planner.ScaleUpQueue = def.Planner.ScaleUpQueue
	}
	if cfg.Planner.ScaleDownIdleTicks <= 0 {
		cfg.Planner.ScaleDownIdleTicks = def.Planner.ScaleDownIdleTicks
	}
	cp := &ControlPlane{
		clock:  clock,
		cfg:    cfg,
		reg:    NewRegistry(clock),
		svc:    svc,
		leases: map[int]*leaseState{},
	}
	if dp != nil {
		cp.loads = dp
		cp.sizer = dp
	}
	fleet := svc.Devices()
	cp.reg.devices = make([]device, 0, len(fleet))
	for _, f := range fleet {
		if err := cp.reg.Register(f.ID, f.Spec.Device.Name, f.Spec.BlocksPerDevice); err != nil {
			panic(err) // unreachable: the device table lists each device once, by ascending id
		}
	}
	svc.SetPlacementFilter(cp.reg.Placeable)
	return cp
}

// Registry exposes the device table (for the HTTP surface and tests).
func (cp *ControlPlane) Registry() *Registry { return cp.reg }

// Heartbeat records a device liveness beat.
func (cp *ControlPlane) Heartbeat(id int) error { return cp.reg.Heartbeat(id) }

// Drain starts a graceful evacuation of the device.
func (cp *ControlPlane) Drain(id int) error { return cp.reg.Drain(id) }

// Undrain returns a draining device to service.
func (cp *ControlPlane) Undrain(id int) error { return cp.reg.Undrain(id) }

// ReportDead marks a device failed immediately.
func (cp *ControlPlane) ReportDead(id int) error { return cp.reg.ReportDead(id) }

// Tick runs one control pass: sweep the health state machine, evacuate
// leases off dead and draining devices, then re-partition leases against
// their load — all under the migration budget, with per-lease exponential
// backoff on failure. Lease order is ascending by id and every time read
// comes from the injected clock, so a scripted run replays exactly.
func (cp *ControlPlane) Tick() TickReport {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.ticks++
	rep := TickReport{Tick: cp.ticks}
	rep.Transitions = cp.reg.Sweep()
	now := cp.clock.Now()
	budget := migrationBudget
	avoid := func(id int) bool { return !cp.reg.Placeable(id) }

	leases := cp.svc.ReadLeases(&cp.view) // ascending by id
	maps.DeleteFunc(cp.leases, func(id int, _ *leaseState) bool {
		_, live := slices.BinarySearchFunc(leases, id, func(l *rms.Lease, id int) int { return cmp.Compare(l.ID, id) })
		return !live
	})
	for _, l := range leases {
		if cp.leases[l.ID] == nil {
			cp.leases[l.ID] = &leaseState{}
		}
	}

	// Phase 1: evacuate leases touching dead or draining devices. Each
	// landed move spends budget, so moved (the view indices of the leases
	// it moved) never outgrows the array behind it.
	var movedBuf [migrationBudget]int
	moved := movedBuf[:0]
	for i, l := range leases {
		force := false
		hit := false
		for _, pl := range l.Placements {
			if st, ok := cp.reg.State(pl.FPGA); ok {
				if st == Dead {
					hit, force = true, true
				} else if st == Draining {
					hit = true
				}
			}
		}
		if !hit {
			continue
		}
		st := cp.leases[l.ID]
		if budget <= 0 || now.Before(st.backoffUntil) {
			rep.Deferred++
			continue
		}
		budget--
		// Try the current depth first; if the shrunken fleet cannot host
		// it, walk down the ladder — a shallower placement beats a lease
		// stranded on a dead device.
		try := []int{l.Depth}
		if ladder, err := cp.svc.FeasibleDepths(l.Spec); err == nil {
			for i := len(ladder) - 1; i >= 0; i-- {
				if ladder[i] < l.Depth {
					try = append(try, ladder[i])
				}
			}
		}
		ev := Event{Lease: l.ID, Kind: "evacuate", FromDepth: l.Depth, ToDepth: l.Depth}
		var err error
		for _, depth := range try {
			ev.ToDepth = depth
			// Walk the ladder on capacity AND quota misses alike: a
			// shallower rung needs fewer devices and may slip under the
			// tenant's remaining device quota.
			if _, err = cp.svc.Migrate(l.ID, depth, avoid, force, nil); err == nil ||
				!errors.Is(err, rms.ErrNoCapacity) && !errors.Is(err, rms.ErrQuotaExceeded) {
				break
			}
		}
		if cp.landLocked(st, &ev, now, err) {
			moved = append(moved, i)
		}
		rep.Events = append(rep.Events, ev)
	}

	// Phase 2: load-driven re-partitioning.
	for i, l := range leases {
		if slices.Contains(moved, i) {
			continue // one move per lease per tick
		}
		st := cp.leases[l.ID]
		var load rms.LoadStats
		if cp.loads != nil {
			load, _ = cp.loads.Load(l.ID) // ok=false reads as idle
		}
		if load.QueueDepth == 0 && load.Pending == 0 {
			st.idleTicks++
		} else {
			st.idleTicks = 0
		}
		ladder, err := cp.svc.FeasibleDepths(l.Spec)
		if err != nil {
			continue
		}
		target := cp.cfg.Planner.TargetDepth(l.Depth, st.idleTicks, load, ladder)
		if target == l.Depth {
			continue
		}
		if budget <= 0 || now.Before(st.backoffUntil) {
			rep.Deferred++
			continue
		}
		budget--
		kind := "scale_up"
		if target < l.Depth {
			kind = "scale_down"
		}
		ev := Event{Lease: l.ID, Kind: kind, FromDepth: l.Depth, ToDepth: target}
		_, err = cp.svc.Migrate(l.ID, target, avoid, false, nil)
		if cp.landLocked(st, &ev, now, err) {
			st.idleTicks = 0
		}
		rep.Events = append(rep.Events, ev)
	}
	return rep
}

// landLocked records how a lease move — evacuation, depth change or
// defrag — ended, in the lease's state, the event and the counters, and
// reports whether the migration landed. A landed one that changed the
// lease's depth rebuilds its data-plane pool at the new depth; a
// same-depth move keeps the engine, since the pool follows depth alone.
// A resize error goes into the event and the migration stands: the error
// is permanent (the lease was released, the plane closed, or the build
// that served the lease so far failed), so there is nothing to retry.
func (cp *ControlPlane) landLocked(st *leaseState, ev *Event, now time.Time, err error) bool {
	if err != nil {
		ev.Err = err.Error()
		cp.failLocked(st, now)
		metrics.MigrationFailures.Add(1)
		return false
	}
	cp.okLocked(st)
	metrics.Migrations.Add(1)
	if ev.ToDepth != ev.FromDepth && cp.sizer != nil {
		if rerr := cp.sizer.Resize(ev.Lease); rerr != nil {
			ev.Err = rerr.Error()
		}
	}
	return true
}

// failLocked applies exponential backoff after a failed migration.
func (cp *ControlPlane) failLocked(st *leaseState, now time.Time) {
	if st.backoff <= 0 {
		st.backoff = retryBackoff
	} else if st.backoff *= 2; st.backoff > maxBackoff {
		st.backoff = maxBackoff
	}
	st.backoffUntil = now.Add(st.backoff)
}

// okLocked clears a lease's backoff after a successful migration.
func (cp *ControlPlane) okLocked(st *leaseState) {
	st.backoff = 0
	st.backoffUntil = time.Time{}
}
