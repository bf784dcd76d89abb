// Package des is a minimal discrete-event simulation engine used by the
// system-level evaluation (§4.4): task arrivals, accelerator completions and
// deallocation are events on a virtual clock.
package des

import (
	"container/heap"
	"errors"
	"time"
)

// Event is a callback scheduled at a virtual time.
type Event struct {
	At time.Duration
	Fn func(now time.Duration)

	seq int // tie-break: FIFO among equal timestamps
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// ErrPast is returned when scheduling before the current virtual time.
var ErrPast = errors.New("des: cannot schedule event in the past")

// Engine runs events in timestamp order. Events scheduled for the same
// virtual time execute in FIFO order (the order they were scheduled): every
// event carries a monotonically increasing sequence number used as the heap
// tie-break. An Engine is not safe for concurrent use; concurrent
// simulations (e.g. parallel workload sets) must each own an engine.
type Engine struct {
	now    time.Duration
	queue  eventHeap
	nextID int
	// processed counts executed events.
	processed int
}

// New returns an engine at virtual time zero.
func New() *Engine {
	e := &Engine{}
	heap.Init(&e.queue)
	return e
}

// Reset returns the engine to its initial state: virtual time zero, an
// empty queue, and — so the sequence counter backing the FIFO tie-break
// cannot grow without bound across reuses — a zeroed event sequence.
// A Reset engine behaves identically to a fresh New one.
func (e *Engine) Reset() {
	e.now = 0
	for i := range e.queue {
		e.queue[i] = nil // release event callbacks for GC
	}
	e.queue = e.queue[:0]
	e.nextID = 0
	e.processed = 0
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.queue.Len() }

// At schedules fn at absolute virtual time t.
func (e *Engine) At(t time.Duration, fn func(now time.Duration)) error {
	if t < e.now {
		return ErrPast
	}
	ev := &Event{At: t, Fn: fn, seq: e.nextID}
	e.nextID++
	heap.Push(&e.queue, ev)
	return nil
}

// After schedules fn delay after the current virtual time.
func (e *Engine) After(delay time.Duration, fn func(now time.Duration)) error {
	if delay < 0 {
		return ErrPast
	}
	return e.At(e.now+delay, fn)
}

// Step executes the earliest pending event. It reports whether an event was
// executed.
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.now = ev.At
	e.processed++
	ev.Fn(e.now)
	return true
}

// Run executes events until the queue drains or until the virtual clock
// would pass horizon (0 means no horizon). It returns the virtual time at
// which it stopped.
func (e *Engine) Run(horizon time.Duration) time.Duration {
	for e.queue.Len() > 0 {
		next := e.queue[0].At
		if horizon > 0 && next > horizon {
			e.now = horizon
			return e.now
		}
		e.Step()
	}
	return e.now
}
