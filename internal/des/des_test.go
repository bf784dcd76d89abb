package des

import (
	"testing"
	"time"
)

func TestOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(3*time.Millisecond, func(time.Duration) { order = append(order, 3) })
	e.At(1*time.Millisecond, func(time.Duration) { order = append(order, 1) })
	e.At(2*time.Millisecond, func(time.Duration) { order = append(order, 2) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 3*time.Millisecond {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var order []string
	e.At(time.Millisecond, func(time.Duration) { order = append(order, "a") })
	e.At(time.Millisecond, func(time.Duration) { order = append(order, "b") })
	e.Run(0)
	if order[0] != "a" || order[1] != "b" {
		t.Errorf("equal timestamps must run FIFO: %v", order)
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := New()
	var fired []time.Duration
	e.At(time.Millisecond, func(now time.Duration) {
		fired = append(fired, now)
		e.At(now+2*time.Millisecond, func(now time.Duration) {
			fired = append(fired, now)
		})
	})
	e.Run(0)
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 3*time.Millisecond {
		t.Errorf("fired = %v", fired)
	}
}

func TestPastRejected(t *testing.T) {
	e := New()
	e.At(5*time.Millisecond, func(time.Duration) {})
	e.Step()
	if err := e.At(time.Millisecond, func(time.Duration) {}); err != ErrPast {
		t.Errorf("scheduling in the past = %v, want ErrPast", err)
	}
}

func TestHorizon(t *testing.T) {
	e := New()
	ran := false
	e.At(10*time.Millisecond, func(time.Duration) { ran = true })
	stop := e.Run(5 * time.Millisecond)
	if ran {
		t.Error("event past horizon must not run")
	}
	if stop != 5*time.Millisecond {
		t.Errorf("Run returned %v, want horizon", stop)
	}
	if len(e.queue) != 1 {
		t.Errorf("%d events pending, want 1", len(e.queue))
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty queue must return false")
	}
}
