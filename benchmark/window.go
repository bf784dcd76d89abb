package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sample is one completed operation: when it finished (offset from the
// window start), how long it took, and whether its output was correct.
type sample struct {
	done, lat time.Duration
	ok        bool
}

// client is one closed-loop caller: it issues its next op only after the
// previous one returned. Outstanding requests are therefore the client
// count — a workload property, not a thread count.
type client struct {
	// op performs the client's n-th operation and reports whether the
	// output was bit-identical to its golden.
	op      func(n int) bool
	samples []sample
	next    int
}

// drive runs every client until the window has elapsed (window > 0) or
// until each has completed count ops, and returns once all have stopped.
// An op that is in flight when the window ends is allowed to finish.
func drive(clients []*client, start time.Time, window time.Duration, count int) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; window > 0 || i < count; i++ {
				t0 := time.Now()
				if window > 0 && t0.Sub(start) >= window {
					return
				}
				ok := c.op(c.next)
				c.next++
				t1 := time.Now()
				c.samples = append(c.samples, sample{done: t1.Sub(start), lat: t1.Sub(t0), ok: ok})
			}
		}(c)
	}
	wg.Wait()
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// segment is one slice of the measured window.
type segment struct {
	ops int             // correct ops completed inside the segment
	lat []time.Duration // their latencies, sorted
	cpu float64         // process CPU seconds spent during the segment
	// first and last are when the segment's first and last op completed.
	first, last time.Duration
}

// rate is the segment's completion rate: the ops after the first over the
// time from the first completion to the last. Counting completions against
// the fixed segment length instead would quantize a slow workload's
// throughput to half an op per second.
func (s segment) rate() float64 {
	if s.ops < 2 || s.last <= s.first {
		return 0
	}
	return float64(s.ops-1) / (s.last - s.first).Seconds()
}

// windowResult is what one measured window yields.
type windowResult struct {
	attempted, ok, failed int
	segLen                time.Duration
	segs                  []segment
	mallocs, allocBytes   uint64
}

// measure runs the clients for one window and cuts it into segments. With
// window > 0 the window is that long, in nseg segments; otherwise every
// client does count ops and the elapsed time is the single segment (the
// smoke mode, which asserts nothing about time). ratePerClient is the
// completion rate one client is expected to reach.
func measure(clients []*client, window time.Duration, nseg, count int, ratePerClient float64) (*windowResult, error) {
	// Sample buffers are sized from the warm-up's rate, with half as much
	// again, so that they do not grow (and allocate) inside the window.
	room := count
	if window <= 0 {
		nseg = 1
	} else {
		room = int(1.5*ratePerClient*window.Seconds()) + 1024
	}
	for _, c := range clients {
		c.samples = make([]sample, 0, room)
	}
	cpus := make([]float64, nseg+1)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	cpus[0] = cpuSeconds()
	var sampler sync.WaitGroup
	if window > 0 {
		// CPU is read at each segment boundary while the clients run.
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for k := 1; k <= nseg; k++ {
				time.Sleep(time.Until(start.Add(window * time.Duration(k) / time.Duration(nseg))))
				cpus[k] = cpuSeconds()
			}
		}()
	}
	drive(clients, start, window, count)
	if window <= 0 {
		window = time.Since(start)
		cpus[1] = cpuSeconds()
	}
	sampler.Wait()
	runtime.ReadMemStats(&m1)

	res := &windowResult{
		segLen:     window / time.Duration(nseg),
		segs:       make([]segment, nseg),
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
	}
	for k := range res.segs {
		res.segs[k].cpu = cpus[k+1] - cpus[k]
	}
	for _, c := range clients {
		for _, s := range c.samples {
			res.attempted++
			if !s.ok {
				res.failed++
				continue
			}
			res.ok++
			// An op that finished after the window closed counts toward
			// the totals (its allocations are in the MemStats delta) but
			// belongs to no segment.
			k := int(s.done / res.segLen)
			if s.done > window || k >= nseg {
				continue
			}
			sg := &res.segs[k]
			if sg.ops == 0 || s.done < sg.first {
				sg.first = s.done
			}
			sg.last = max(sg.last, s.done)
			sg.ops++
			sg.lat = append(sg.lat, s.lat)
		}
	}
	for k := range res.segs {
		lat := res.segs[k].lat
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		if res.segs[k].ops == 0 || len(lat) == 0 {
			return nil, fmt.Errorf("segment %d of %d completed no correct op (%d attempted, %d failed)",
				k+1, nseg, res.attempted, res.failed)
		}
	}
	return res, nil
}

// percentile is the nearest-rank q-quantile of a sorted sample.
func percentile(sorted []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// medianSegment reports the median over the window's segments of f, with
// the number of latencies the segment it came from holds. One disturbed
// segment — a neighbour's burst, or the first one, in which state that
// builds up with traffic is still filling — cannot move it.
func (r *windowResult) medianSegment(f func(segment) float64) (v float64, samples int) {
	type kv struct {
		v float64
		n int
	}
	vals := make([]kv, len(r.segs))
	for i, s := range r.segs {
		vals[i] = kv{f(s), len(s.lat)}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })
	m := vals[len(vals)/2]
	return m.v, m.n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveHeapMB is the heap still reachable after two forced collections (the
// second frees what the first's finalizers released).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// timings are the figures computed per segment. Those decl.go declares are
// reported as end-to-end metrics, the rest as diagnostics; either way the
// reported value is the median segment's, and every segment's value is
// printed beside it so that a disturbed run can be told from a slow one.
var timings = []struct {
	name, unit, better string
	f                  func(segment) float64
}{
	{"throughput_per_s", "1/s", "higher", segment.rate},
	{"latency_p50_ms", "ms", "lower", func(s segment) float64 { return ms(percentile(s.lat, 0.50)) }},
	{"latency_p95_ms", "ms", "lower", func(s segment) float64 { return ms(percentile(s.lat, 0.95)) }},
	{"latency_p99_ms", "ms", "lower", func(s segment) float64 { return ms(percentile(s.lat, 0.99)) }},
	{"cpu_ms_per_op", "ms", "lower", func(s segment) float64 { return s.cpu * 1e3 / float64(s.ops) }},
}

// endToEndReport turns one window and the run's set-up times into the
// report of the declared end-to-end metrics plus the printed-only
// diagnostics. It drops the clients' sample buffers before reading the live
// heap: they are sized by the warm-up rate, so they are not part of a
// repeatable heap figure. Whatever else the caller still holds — the open
// stack — is.
func (c config) endToEndReport(clients []*client, r *windowResult, setupS []float64) *report {
	for _, cl := range clients {
		cl.samples = nil
	}
	rep := c.newReport(r)
	for i, v := range setupS {
		rep.Diagnostics = append(rep.Diagnostics, value{Name: fmt.Sprintf("setup%d_s", i+1), Value: v, Unit: "s"})
	}
	sort.Float64s(setupS)
	ok := float64(r.ok)
	measured := map[string]value{
		"setup_s":         {Value: setupS[len(setupS)/2], Samples: len(setupS)},
		"allocs_per_op":   {Value: float64(r.mallocs) / ok},
		"alloc_kb_per_op": {Value: float64(r.allocBytes) / 1e3 / ok},
		"heap_mb":         {Value: liveHeapMB()},
	}
	for _, t := range timings {
		v, n := r.medianSegment(t.f)
		if _, declared := findDecl(endToEnd, t.name); declared {
			measured[t.name] = value{Value: v, Samples: n}
		} else {
			rep.Diagnostics = append(rep.Diagnostics, value{Name: t.name, Value: v, Unit: t.unit, Samples: n})
		}
	}
	for _, d := range endToEnd {
		if v, ok := measured[d.name]; ok {
			v.Name, v.Unit = d.name, d.unit
			rep.Metrics = append(rep.Metrics, v)
		}
	}
	for k, s := range r.segs {
		for _, t := range timings {
			rep.Diagnostics = append(rep.Diagnostics, value{
				Name: fmt.Sprintf("segment%d.%s", k+1, t.name), Value: t.f(s), Unit: t.unit, Samples: len(s.lat),
			})
		}
	}
	return rep
}
