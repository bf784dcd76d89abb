package rms

import (
	"fmt"
	"time"

	"mlvfpga/internal/des"
	"mlvfpga/internal/hsvital"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/workload"
)

// SimulateBaseline models the AS ISA-only baseline system of Fig. 12:
// resources are managed at per-device granularity, so every task occupies
// a whole FPGA for its duration regardless of the accelerator's actual
// footprint (the statically compiled instance owns the device). Layers
// whose weights exceed the device's on-chip storage fall back to streaming
// weights from DRAM (there is no multi-FPGA scale-out without the
// framework).
func SimulateBaseline(tasks []workload.Task, cluster resource.ClusterSpec, p perf.Params) (Result, error) {
	type device struct {
		name string
		busy bool
	}
	var devices []*device
	for _, s := range hsvital.AllSpecs() {
		for i := 0; i < cluster[s.Device.Name]; i++ {
			devices = append(devices, &device{name: s.Device.Name})
		}
	}
	if len(devices) == 0 {
		return Result{}, fmt.Errorf("rms: empty cluster")
	}

	// latencyOn caches the baseline latency per (spec, device type).
	latCache := map[string]time.Duration{}
	latencyOn := func(spec kernels.LayerSpec, dev string) (time.Duration, error) {
		key := spec.String() + "@" + dev
		if d, ok := latCache[key]; ok {
			return d, nil
		}
		var total time.Duration
		if inst, err := perf.ChooseInstance(spec, dev); err == nil {
			total = perf.Baseline(spec, inst, p).Total
		} else {
			b, err := perf.StreamingLatency(spec, dev, p)
			if err != nil {
				return 0, err
			}
			total = b.Total
		}
		latCache[key] = total
		return total, nil
	}

	// The whole-device resource model: the free device offering the lowest
	// latency, held until the task completes.
	return runQueue(des.New(), tasks, nil, func(task workload.Task) (verdict, time.Duration, func(), error) {
		var best *device
		var bestLat time.Duration
		for _, d := range devices {
			if d.busy {
				continue
			}
			lat, err := latencyOn(task.Spec, d.name)
			if err != nil {
				return waits, 0, nil, err
			}
			if best == nil || lat < bestLat {
				best, bestLat = d, lat
			}
		}
		if best == nil {
			return waits, 0, nil, nil
		}
		best.busy = true
		return started, bestLat, func() { best.busy = false }, nil
	})
}
