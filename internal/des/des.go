// Package des is a minimal discrete-event simulation engine used by the
// system-level evaluation (§4.4): task arrivals, accelerator completions and
// deallocation are events on a virtual clock.
package des

import (
	"errors"
	"time"
)

// Event is a callback scheduled at a virtual time.
type Event struct {
	At time.Duration
	Fn func(now time.Duration)

	seq int // tie-break: FIFO among equal timestamps
}

// ErrPast is returned when scheduling before the current virtual time.
var ErrPast = errors.New("des: cannot schedule event in the past")

// Engine runs events in timestamp order. Events scheduled for the same
// virtual time execute in FIFO order (the order they were scheduled): every
// event carries a monotonically increasing sequence number used as the heap
// tie-break. The heap holds events by value, so once its array has grown a
// scheduled event allocates nothing. An Engine is not safe for concurrent
// use; concurrent simulations (e.g. parallel workload sets) must each own
// an engine.
type Engine struct {
	now    time.Duration
	queue  []Event
	nextID int
}

// New returns an engine at virtual time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

func (e *Engine) less(i, j int) bool {
	a, b := &e.queue[i], &e.queue[j]
	return a.At < b.At || a.At == b.At && a.seq < b.seq
}

// At schedules fn at absolute virtual time t.
func (e *Engine) At(t time.Duration, fn func(now time.Duration)) error {
	if t < e.now {
		return ErrPast
	}
	e.queue = append(e.queue, Event{At: t, Fn: fn, seq: e.nextID})
	e.nextID++
	for i := len(e.queue) - 1; i > 0; { // sift up
		p := (i - 1) / 2
		if !e.less(i, p) {
			break
		}
		e.queue[i], e.queue[p] = e.queue[p], e.queue[i]
		i = p
	}
	return nil
}

// Step executes the earliest pending event. It reports whether an event was
// executed.
func (e *Engine) Step() bool {
	n := len(e.queue) - 1
	if n < 0 {
		return false
	}
	ev := e.queue[0]
	e.queue[0], e.queue[n] = e.queue[n], Event{} // drop the popped Fn
	e.queue = e.queue[:n]
	for i := 0; ; { // sift down
		m := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < n && e.less(c, m) {
				m = c
			}
		}
		if m == i {
			break
		}
		e.queue[i], e.queue[m] = e.queue[m], e.queue[i]
		i = m
	}
	e.now = ev.At
	ev.Fn(e.now)
	return true
}

// Run executes events until the queue drains or until the virtual clock
// would pass horizon (0 means no horizon). It returns the virtual time at
// which it stopped.
func (e *Engine) Run(horizon time.Duration) time.Duration {
	for len(e.queue) > 0 {
		if horizon > 0 && e.queue[0].At > horizon {
			e.now = horizon
			return e.now
		}
		e.Step()
	}
	return e.now
}
