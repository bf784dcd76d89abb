package des

import (
	"cmp"
	"math/rand"
	"slices"
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

// TestMatchesStableSort runs random schedules, with many equal timestamps
// and events that schedule more events at their own instant or later,
// against a reference that stable-sorts everything scheduled by time:
// the engine must run each event in (At, scheduling order).
func TestMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		type rec struct {
			at time.Duration
			id int
		}
		var scheduled, ran []rec
		var schedule func(at time.Duration)
		schedule = func(at time.Duration) {
			r := rec{at, len(scheduled)}
			scheduled = append(scheduled, r)
			if err := e.At(at, func(now time.Duration) {
				if now != r.at {
					t.Fatalf("seed %d: event %d at %v ran at %v", seed, r.id, r.at, now)
				}
				ran = append(ran, r)
				if len(scheduled) < 400 && rng.Intn(3) == 0 {
					schedule(now + time.Duration(rng.Intn(3))) // often now itself
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		for range 100 {
			schedule(time.Duration(rng.Intn(20)))
		}
		e.Run(0)
		want := slices.Clone(scheduled)
		slices.SortStableFunc(want, func(a, b rec) int { return cmp.Compare(a.at, b.at) })
		if !slices.Equal(ran, want) {
			t.Fatalf("seed %d: ran %v, want %v", seed, ran, want)
		}
	}
}

// TestWarmEventAllocatesNothing holds the by-value heap: once its array
// has grown, scheduling and running an event allocates nothing.
func TestWarmEventAllocatesNothing(t *testing.T) {
	e := New()
	fn := func(time.Duration) {}
	for i := range 64 {
		e.At(time.Duration(i%7), fn)
	}
	if got := testing.AllocsPerRun(100, func() {
		e.At(e.Now()+3, fn)
		e.At(e.Now(), fn)
		e.Step()
		e.Step()
	}); got != 0 {
		t.Errorf("a warmed At+Step allocates %v times, want 0", got)
	}
}
