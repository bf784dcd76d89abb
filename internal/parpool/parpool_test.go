package parpool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersDefault(t *testing.T) {
	if Workers(0) != runtime.NumCPU() || Workers(-3) != runtime.NumCPU() {
		t.Error("non-positive parallelism must default to NumCPU")
	}
	if Workers(5) != 5 {
		t.Error("positive parallelism must pass through")
	}
}

func TestMapOrderAndCompleteness(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		out, err := Map(workers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if out, err := Map(4, 0, func(int) (int, error) {
		t.Fatal("must not run")
		return 0, nil
	}); out != nil || err != nil {
		t.Fatal(out, err)
	}
}

// TestBoundedConcurrency: Map runs exactly workers jobs at once. The first
// workers jobs to start wait for one another, so they all run together (a
// pool that ran fewer would hang here), and no job ever sees more running.
func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak, started atomic.Int32
	all := make(chan struct{}) // closed once the first workers jobs all run
	_, err := Map(workers, 50, func(i int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		if k := started.Add(1); k == workers {
			close(all)
		} else if k < workers {
			<-all
		}
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != workers {
		t.Errorf("observed %d concurrent jobs, want exactly %d", p, workers)
	}
}

func TestLowestIndexedErrorWins(t *testing.T) {
	wantErr := errors.New("boom-10")
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 40, func(i int) (int, error) {
			if i == 10 {
				return 0, wantErr
			}
			if i == 30 {
				return 0, fmt.Errorf("boom-30")
			}
			return i, nil
		})
		if !errors.Is(err, wantErr) {
			t.Errorf("workers=%d: err = %v, want lowest-indexed boom-10", workers, err)
		}
	}
}

func TestErrorStopsDispatch(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	_, err := Map(2, 10000, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n == 10000 {
		t.Error("a failing job must stop the remaining dispatch")
	}
}

func TestMapDiscardsOnError(t *testing.T) {
	out, err := Map(4, 10, func(i int) (int, error) {
		if i == 3 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Errorf("Map on error = (%v, %v), want (nil, err)", out, err)
	}
}

func TestSequentialMatchesParallel(t *testing.T) {
	run := func(workers int) []int {
		out, err := Map(workers, 64, func(i int) (int, error) {
			return 31*i + 7, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("index %d: sequential %d != parallel %d", i, seq[i], par[i])
		}
	}
}
