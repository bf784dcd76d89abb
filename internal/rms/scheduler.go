package rms

import (
	"fmt"
	"sort"
	"time"

	"mlvfpga/internal/des"
	"mlvfpga/internal/hsvital"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/workload"
)

// QueueDiscipline selects how queued tasks are considered when blocks
// free up. The paper uses a simple policy and leaves "more comprehensive
// runtime policy" as future work; SJF is implemented as that extension.
type QueueDiscipline int

const (
	// FIFOBackfill scans the queue in arrival order, starting whatever
	// fits (the default).
	FIFOBackfill QueueDiscipline = iota
	// SJF considers shorter tasks (by best modelled latency) first.
	SJF
)

// Config parameterizes the virtualized-system simulation.
type Config struct {
	Cluster resource.ClusterSpec
	Mode    PolicyMode
	DB      *Database
	// Discipline selects the queue policy (default FIFOBackfill).
	Discipline QueueDiscipline
}

// Result summarizes one system-level run (a Fig. 12 data point).
type Result struct {
	Completed int
	Rejected  int // tasks with no feasible deployment at all
	Makespan  time.Duration
	// ThroughputPerSec is completed tasks over makespan — the paper's
	// aggregated system throughput metric.
	ThroughputPerSec float64
	AvgLatency       time.Duration // service time (dispatch to completion)
	AvgSojourn       time.Duration // arrival to completion
	PeakQueue        int
	// PeakUtilization is the maximum fraction of occupied virtual blocks.
	PeakUtilization float64
}

// verdict is a resource model's answer to one dispatch attempt.
type verdict int

const (
	// waits: nothing fits right now; the task queues until a completion.
	waits verdict = iota
	// started: resources are held; the loop schedules the completion.
	started
	// rejected: this system can never host the task; it is dropped.
	rejected
)

// tryFunc is the resource model runQueue is parameterized by: try to start
// the task now; on started, return its service time and how to give its
// resources back at completion.
type tryFunc func(task workload.Task) (v verdict, latency time.Duration, release func(), err error)

// runQueue is the one discrete-event loop behind both Fig. 12 systems:
// tasks arrive on the engine's clock, start if the resource model admits
// them and queue otherwise; every completion releases its resources and
// re-scans the queue — in arrival order (FIFO with backfill) unless order
// re-sorts it first — starting whatever fits.
func runQueue(engine *des.Engine, tasks []workload.Task, order func(queue []workload.Task), try tryFunc) (Result, error) {
	var res Result
	var queue []workload.Task
	var sumLatency, sumSojourn, lastCompletion time.Duration
	var rescan func(now time.Duration)

	// dispatch reports whether the task is done queueing (started or dropped).
	dispatch := func(now time.Duration, task workload.Task) bool {
		v, latency, release, err := try(task)
		if err == nil && v == started {
			sumLatency += latency
			sumSojourn += now - task.Arrival + latency
			err = engine.At(now+latency, func(n time.Duration) {
				release()
				res.Completed++
				if n > lastCompletion {
					lastCompletion = n
				}
				rescan(n)
			})
		}
		if err != nil {
			panic(fmt.Sprintf("rms: dispatch: %v", err))
		}
		if v == rejected {
			res.Rejected++
		}
		return v != waits
	}
	rescan = func(now time.Duration) {
		if order != nil {
			order(queue)
		}
		remaining := queue[:0]
		for _, task := range queue {
			if !dispatch(now, task) {
				remaining = append(remaining, task)
			}
		}
		queue = remaining
	}

	for _, task := range tasks {
		task := task
		if err := engine.At(task.Arrival, func(now time.Duration) {
			if !dispatch(now, task) {
				queue = append(queue, task)
				if len(queue) > res.PeakQueue {
					res.PeakQueue = len(queue)
				}
			}
		}); err != nil {
			return Result{}, err
		}
	}
	engine.Run(0)

	if len(queue) > 0 {
		return Result{}, fmt.Errorf("rms: %d tasks stuck in queue after drain", len(queue))
	}
	res.Makespan = lastCompletion
	if res.Completed > 0 {
		res.AvgLatency = sumLatency / time.Duration(res.Completed)
		res.AvgSojourn = sumSojourn / time.Duration(res.Completed)
	}
	if res.Makespan > 0 {
		res.ThroughputPerSec = float64(res.Completed) / res.Makespan.Seconds()
	}
	return res, nil
}

// Simulate runs a task sequence through the virtualized framework on the
// given cluster: the system controller consults the mapping database,
// walks a task's deployments in the database's greedy order (fewest soft
// blocks, then lowest latency), best-fits the first placeable one onto
// virtual blocks, and queued tasks dispatch as completions free blocks.
func Simulate(tasks []workload.Task, cfg Config) (Result, error) {
	ctrl, err := hsvital.NewController(cfg.Cluster)
	if err != nil {
		return Result{}, err
	}
	db := cfg.DB
	if db == nil {
		return Result{}, fmt.Errorf("rms: nil database")
	}
	engine := des.New()

	inv := inventory(ctrl)
	var peakUtilization float64
	try := func(task workload.Task) (verdict, time.Duration, func(), error) {
		opts, err := db.Options(task.Spec)
		if err != nil {
			return rejected, 0, nil, nil // no deployment exists at all
		}
		v := rejected // until some deployment could ever fit this cluster
		for _, dep := range opts {
			if !dep.fitsInventory(inv) {
				continue
			}
			v = waits
			pls := bestFit(ctrl, dep, nil)
			if pls == nil {
				continue
			}
			if err := configure(ctrl, pls); err != nil {
				return waits, 0, nil, err
			}
			if u := ctrl.Utilization(); u > peakUtilization {
				peakUtilization = u
			}
			return started, dep.Latency, func() { release(ctrl, pls) }, nil
		}
		return v, 0, nil, nil
	}

	var order func(queue []workload.Task)
	if cfg.Discipline == SJF {
		// The SJF sort key is the task's fastest deployment.
		bestLatency := func(task workload.Task) time.Duration {
			opts, err := db.Options(task.Spec)
			if err != nil || len(opts) == 0 {
				return 1 << 62
			}
			best := opts[0].Latency
			for _, o := range opts[1:] {
				if o.Latency < best {
					best = o.Latency
				}
			}
			return best
		}
		order = func(queue []workload.Task) {
			sort.SliceStable(queue, func(i, j int) bool {
				return bestLatency(queue[i]) < bestLatency(queue[j])
			})
		}
	}

	res, err := runQueue(engine, tasks, order, try)
	res.PeakUtilization = peakUtilization
	return res, err
}
