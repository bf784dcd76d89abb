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
}

// New returns an engine at virtual time zero.
func New() *Engine {
	e := &Engine{}
	heap.Init(&e.queue)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

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

// Step executes the earliest pending event. It reports whether an event was
// executed.
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.now = ev.At
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
