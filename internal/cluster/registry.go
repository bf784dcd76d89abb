package cluster

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"mlvfpga/internal/metrics"
)

// State is a device's position in the health state machine:
//
//	            heartbeat                 heartbeat
//	   ┌─────────────────────┐   ┌─────────────────────────┐
//	   ▼                     │   ▼                         │
//	Healthy ──suspectAfter──► Suspect ──deadAfter───► Dead ─┘
//	   │
//	   └──Drain()──► Draining ──Undrain()──► Healthy
//
// Suspect devices take no new placements but keep their leases (the miss
// may be a hiccup); Dead and Draining devices are evacuated. A heartbeat
// revives Suspect and Dead devices; Draining is an administrative state
// cleared only by Undrain.
type State int

const (
	// Healthy devices heartbeat on time and accept placements.
	Healthy State = iota
	// Suspect devices missed heartbeats for suspectAfter: no new
	// placements, existing leases stay put pending recovery.
	Suspect
	// Dead devices missed heartbeats for deadAfter: leases are
	// force-migrated off.
	Dead
	// Draining devices are administratively leaving: no new placements
	// and leases migrate off gracefully (make-before-break).
	Draining
)

func (s State) String() string {
	switch s {
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Draining:
		return "draining"
	}
	return "healthy"
}

// stateJSON holds each state's quoted name, built once.
var stateJSON = func() (q [Draining + 1][]byte) {
	for s := range q {
		q[s] = strconv.AppendQuote(nil, State(s).String())
	}
	return q
}()

// MarshalJSON renders the state name for API clients. The bytes are
// shared and clipped: an append copies them; do not modify them.
func (s State) MarshalJSON() ([]byte, error) {
	if s < Healthy || s > Draining {
		return strconv.AppendQuote(nil, s.String()), nil
	}
	return slices.Clip(stateJSON[s]), nil
}

// UnmarshalJSON parses a state name (the CLI reads device snapshots).
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "healthy":
		*s = Healthy
	case "suspect":
		*s = Suspect
	case "dead":
		*s = Dead
	case "draining":
		*s = Draining
	default:
		return fmt.Errorf("cluster: unknown state %q", name)
	}
	return nil
}

// HeartbeatInterval is how often a device agent reports in. The agents are
// simulated in-process, so the interval has one sensible value, and the
// health windows below are multiples of it: a registry whose windows and
// beat were set apart could only flap healthy devices or sweep them Dead.
const HeartbeatInterval = 500 * time.Millisecond

const (
	// suspectAfter is the silence after which a Healthy device turns
	// Suspect: three missed beats.
	suspectAfter = 3 * HeartbeatInterval
	// deadAfter is the silence after which a device turns Dead: ten.
	deadAfter = 10 * HeartbeatInterval
)

// device is the registry's record of one fleet member.
type device struct {
	id       int
	typ      string
	blocks   int
	state    State
	draining bool          // sticky admin flag, survives health transitions
	lastBeat time.Duration // since the registry's epoch
}

// DeviceInfo is a point-in-time view of a registry entry.
type DeviceInfo struct {
	ID int `json:"id"`
	// Type is the device type name (the typed capacity's device class).
	Type string `json:"type"`
	// Blocks is the device's virtual-block capacity.
	Blocks int   `json:"blocks"`
	State  State `json:"state"`
	// SinceBeat is how long ago the device last heartbeat.
	SinceBeat time.Duration `json:"since_heartbeat_ns"`
}

// Transition is one state change observed by a sweep or report.
type Transition struct {
	Device int   `json:"device"`
	From   State `json:"from"`
	To     State `json:"to"`
}

// Registry is the fleet's device table: typed capacities plus the health
// state machine, driven entirely by the injected clock. Fleet ids are
// dense from 0, so the table is a slab indexed by id. Beat times are
// durations since the clock's reading at construction, monotonic under
// WallClock: a step of the wall clock moves no device's age.
type Registry struct {
	mu      sync.Mutex
	clock   Clock
	epoch   time.Time
	devices []device
}

// NewRegistry builds an empty registry.
func NewRegistry(clock Clock) *Registry {
	return &Registry{clock: clock, epoch: clock.Now()}
}

// now reads the clock once, as a duration since the epoch.
func (r *Registry) now() time.Duration { return r.clock.Now().Sub(r.epoch) }

// Register adds a device with its typed capacity, initially Healthy as of
// the current clock. Ids must arrive in order from 0: a duplicate or a gap
// is refused.
func (r *Registry) Register(id int, deviceType string, blocks int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id != len(r.devices) {
		return fmt.Errorf("cluster: device %d registered twice or out of order, want %d", id, len(r.devices))
	}
	r.devices = append(r.devices, device{id: id, typ: deviceType, blocks: blocks, lastBeat: r.now()})
	return nil
}

// lookup returns the device's record; the caller holds r.mu.
func (r *Registry) lookup(id int) (*device, bool) {
	if id < 0 || id >= len(r.devices) {
		return nil, false
	}
	return &r.devices[id], true
}

// Heartbeat records a liveness beat from one device.
func (r *Registry) Heartbeat(id int) error {
	_, err := r.HeartbeatEach([]int{id}, nil)
	return err
}

// HeartbeatEach beats ids in order under one lock and one clock reading,
// skipping those with silent[id] set (an id beyond silent beats): the
// whole fleet's round in one pass. A beat revives Suspect and Dead
// devices; Draining devices stay Draining — the beat only refreshes their
// clock. It stops at the first unknown id and returns how many beat.
func (r *Registry) HeartbeatEach(ids []int, silent []bool) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now, beat := r.now(), 0
	for _, id := range ids {
		if id >= 0 && id < len(silent) && silent[id] {
			continue
		}
		d, ok := r.lookup(id)
		if !ok {
			return beat, fmt.Errorf("cluster: heartbeat from unknown device %d", id)
		}
		beat++
		d.lastBeat = now
		if d.state == Suspect || d.state == Dead {
			if d.draining {
				d.state = Draining
			} else {
				d.state = Healthy
			}
		}
	}
	return beat, nil
}

// Drain marks a device as administratively leaving.
func (r *Registry) Drain(id int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.lookup(id)
	if !ok {
		return fmt.Errorf("cluster: drain of unknown device %d", id)
	}
	d.draining = true
	if d.state == Healthy {
		d.state = Draining
	}
	return nil
}

// Undrain returns a draining device to service.
func (r *Registry) Undrain(id int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.lookup(id)
	if !ok {
		return fmt.Errorf("cluster: undrain of unknown device %d", id)
	}
	d.draining = false
	if d.state == Draining {
		d.state = Healthy
	}
	return nil
}

// ReportDead marks a device Dead immediately — the path for positive
// failure evidence (an operator's /cluster/kill) that should not wait out
// the heartbeat timers.
func (r *Registry) ReportDead(id int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.lookup(id)
	if !ok {
		return fmt.Errorf("cluster: failure report for unknown device %d", id)
	}
	if d.state != Dead {
		metrics.DevicesCondemned.Add(1)
		d.state = Dead
	}
	return nil
}

// Sweep advances the health state machine against the clock and returns
// the transitions in device id order (deterministic under a fake
// clock). Each downgrade counts as a heartbeat miss.
func (r *Registry) Sweep() []Transition {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	var out []Transition
	for i := range r.devices {
		d := &r.devices[i]
		overdue := now - d.lastBeat
		next := d.state
		switch d.state {
		case Healthy, Draining:
			if overdue > deadAfter {
				next = Dead
			} else if overdue > suspectAfter {
				next = Suspect
			}
		case Suspect:
			if overdue > deadAfter {
				next = Dead
			}
		}
		if next != d.state {
			out = append(out, Transition{Device: d.id, From: d.state, To: next})
			d.state = next
			metrics.HeartbeatMisses.Add(1)
		}
	}
	return out
}

// State returns a device's current state.
func (r *Registry) State(id int) (State, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.lookup(id)
	if !ok {
		return Healthy, false
	}
	return d.state, true
}

// Placeable reports whether new soft blocks may land on the device: only
// Healthy members take placements.
func (r *Registry) Placeable(id int) bool {
	st, ok := r.State(id)
	return ok && st == Healthy
}

// Evacuate reports whether leases must migrate off the device (Dead or
// Draining).
func (r *Registry) Evacuate(id int) bool {
	st, ok := r.State(id)
	return ok && (st == Dead || st == Draining)
}

// Snapshot lists every device in id order.
func (r *Registry) Snapshot() []DeviceInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]DeviceInfo, 0, len(r.devices))
	for _, d := range r.devices {
		out = append(out, DeviceInfo{
			ID: d.id, Type: d.typ, Blocks: d.blocks,
			State: d.state, SinceBeat: now - d.lastBeat,
		})
	}
	return out
}
