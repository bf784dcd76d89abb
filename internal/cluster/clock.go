// Package cluster is the fleet-level control plane sitting above the
// runtime management system (rms): a device registry with heartbeats and
// health states, load-driven deployment-depth selection over the
// partition ladder, and elastic lease migration off dead or draining
// devices. The paper's system abstraction (§2.3) spans a heterogeneous
// cluster; this package supplies the control loop that keeps such a
// cluster serving when devices come, go and fail — the piece a single
// placed-once rms.Service lacks.
//
// Every time-dependent decision flows through an injectable Clock, so the
// control plane runs identically under the wall clock (mlv-serve), a
// hand-advanced fake (tests) and the discrete-event simulator (soak).
package cluster

import (
	"sync"
	"time"

	"mlvfpga/internal/des"
)

// Clock abstracts time for the control plane.
type Clock interface {
	Now() time.Time
}

// WallClock is the real time.Now clock used in production.
type WallClock struct{}

// Now returns the wall-clock time.
func (WallClock) Now() time.Time { return time.Now() }

// FakeClock is a clock that moves only when the package's tests advance
// it; to any other caller it is a clock stopped at its start.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{t: start}
}

// Now returns the current fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// DESClock adapts a discrete-event engine's virtual time: Now() is Epoch
// plus the engine's current virtual time, so registry timeouts and
// backoffs resolve on the simulator's clock.
type DESClock struct {
	Engine *des.Engine
	Epoch  time.Time
}

// Now returns the virtual instant.
func (c DESClock) Now() time.Time { return c.Epoch.Add(c.Engine.Now()) }
