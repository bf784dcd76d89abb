// Package parpool is a minimal bounded worker pool for the framework's
// independent offline jobs: the §4.3 instance-catalog compiles and the
// Fig. 12 workload-set simulations. One compile runs on its caller's
// goroutine; only whole, independent jobs fan out.
//
// The pool is deliberately tiny and stdlib-only. Jobs are identified by a
// dense index range [0, n); results are collected positionally, so output
// order — and therefore every downstream artifact — is independent of
// scheduling. With workers <= 1 the pool degenerates to an inline loop,
// reproducing strictly sequential behaviour.
package parpool

import (
	"runtime"
	"sync"
)

// Workers normalizes a parallelism knob: values < 1 mean "one worker per
// logical CPU" (the framework-wide default), anything else is taken as-is.
func Workers(n int) int {
	if n < 1 {
		return runtime.NumCPU()
	}
	return n
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns the results in index order. It returns the error of the
// lowest-indexed failing job (so error propagation is deterministic
// regardless of scheduling); once any job fails, undispatched jobs are
// skipped and the partial results are discarded.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	workers = min(Workers(workers), n)
	if workers == 1 {
		for i := range out {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		mu       sync.Mutex
		firstErr error
		errIdx   = n
		next     int
	)
	// take hands out the next index, or reports false once the jobs are
	// exhausted or one has failed.
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || firstErr != nil {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				v, err := fn(i)
				if err != nil {
					mu.Lock()
					if i < errIdx {
						firstErr, errIdx = err, i
					}
					mu.Unlock()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
