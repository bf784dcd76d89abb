package cluster

import (
	"errors"
	"maps"
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

// Resizer adjusts a lease's data-plane concurrency after a depth change.
// *rms.DataPlane implements it.
type Resizer interface {
	Resize(leaseID, machines int) error
}

// Config tunes the control plane.
type Config struct {
	// Planner tunes depth selection.
	Planner PlannerConfig
	// MachinesPerPiece sizes the data-plane machine pool as depth ×
	// MachinesPerPiece on depth changes.
	MachinesPerPiece int
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
	return Config{
		Planner:          DefaultPlannerConfig(),
		MachinesPerPiece: 2,
	}
}

// Event is one control action taken (or attempted) during a tick.
type Event struct {
	Lease int `json:"lease"`
	// Kind is "evacuate", "scale_up", "scale_down" or "resize" (a retry
	// of a machine-pool resize that failed after a successful migration).
	Kind      string `json:"kind"`
	FromDepth int    `json:"from_depth"`
	ToDepth   int    `json:"to_depth"`
	// Err is set when the action failed (the lease backs off and
	// retries on a later tick).
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
	// wantMachines is a machine-pool size the data plane still owes the
	// lease: set when a resize fails after a successful migration, cleared
	// once a later tick's retry lands, so the pool never silently stays
	// sized for the old depth.
	wantMachines int
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
	view            rms.LeaseView
	live, evacuated map[int]bool
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
	if cfg.MachinesPerPiece <= 0 {
		cfg.MachinesPerPiece = def.MachinesPerPiece
	}
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
		live:   map[int]bool{}, evacuated: map[int]bool{},
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
func (cp *ControlPlane) Tick() *TickReport {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.ticks++
	rep := &TickReport{Tick: cp.ticks}
	rep.Transitions = cp.reg.Sweep()
	now := cp.clock.Now()
	budget := migrationBudget
	avoid := func(id int) bool { return !cp.reg.Placeable(id) }

	leases := cp.svc.ReadLeases(&cp.view)
	live, evacuated := cp.live, cp.evacuated
	clear(live)
	clear(evacuated)
	for _, l := range leases {
		live[l.ID] = true
		if cp.leases[l.ID] == nil {
			cp.leases[l.ID] = &leaseState{}
		}
	}
	maps.DeleteFunc(cp.leases, func(id int, _ *leaseState) bool { return !live[id] })

	// Phase 1: evacuate leases touching dead or draining devices.
	for _, l := range leases {
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
		// The pool is sized by depth alone, so a same-depth evacuation
		// keeps its engine: the lease is usually under traffic and a rebuild
		// would checkpoint every resident stream for nothing. Defrag's
		// same-depth moves do rebuild: its leases are quiet, so it is free,
		// and the transplant carries over any stream that slipped in since
		// the quiet check.
		machines := 0
		if ev.ToDepth != ev.FromDepth {
			machines = ev.ToDepth * cp.cfg.MachinesPerPiece
		}
		evacuated[l.ID] = cp.landLocked(st, &ev, now, err, machines)
		rep.Events = append(rep.Events, ev)
	}

	// Phase 2: load-driven re-partitioning.
	for _, l := range leases {
		if evacuated[l.ID] {
			continue // one move per lease per tick
		}
		st := cp.leases[l.ID]
		if st.wantMachines > 0 && cp.sizer != nil {
			// Settle the owed machine-pool resize before planning another
			// depth change for this lease.
			if now.Before(st.backoffUntil) {
				rep.Deferred++
				continue
			}
			ev := Event{Lease: l.ID, Kind: "resize", FromDepth: l.Depth, ToDepth: l.Depth}
			if rerr := cp.sizer.Resize(l.ID, st.wantMachines); rerr != nil {
				ev.Err = rerr.Error()
				cp.failLocked(st, now)
			} else {
				st.wantMachines = 0
				cp.okLocked(st)
			}
			rep.Events = append(rep.Events, ev)
			continue
		}
		var load rms.LoadStats
		if cp.loads != nil {
			load, _ = cp.loads.Load(l.ID) // ok=false reads as idle
		}
		if load.QueueDepth == 0 && load.InFlight == 0 {
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
		if cp.landLocked(st, &ev, now, err, target*cp.cfg.MachinesPerPiece) {
			st.idleTicks = 0
		}
		rep.Events = append(rep.Events, ev)
	}
	return rep
}

// landLocked records how a lease move — evacuation, depth change or
// defrag — ended, in the lease's state, the event and the counters, and
// reports whether the migration landed. A landed one rebuilds the
// data-plane pool at machines (0: keep it); if that fails the migration
// stands, the lease remembers the pool it is owed in wantMachines and
// backs off, and a later tick retries the resize alone.
func (cp *ControlPlane) landLocked(st *leaseState, ev *Event, now time.Time, err error, machines int) bool {
	if err != nil {
		ev.Err = err.Error()
		cp.failLocked(st, now)
		metrics.MigrationFailures.Add(1)
		return false
	}
	cp.okLocked(st)
	metrics.Migrations.Add(1)
	if machines > 0 && cp.sizer != nil {
		st.wantMachines = 0
		if rerr := cp.sizer.Resize(ev.Lease, machines); rerr != nil {
			ev.Err = rerr.Error()
			st.wantMachines = machines
			cp.failLocked(st, now)
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
