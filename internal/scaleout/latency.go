package scaleout

import (
	"fmt"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/netmodel"
	"mlvfpga/internal/perf"
)

// This file is the latency model of a scaled-out deployment: one AS
// ISA-based accelerator deployed onto len(devices) FPGAs, possibly of
// different device types — the heterogeneous multi-FPGA deployments that
// distinguish the proposed framework from existing HS abstractions (§4.4).
// Per step, each device computes its 1/n share of the hidden state, the
// shares are all-gathered over the ring, and (optionally, with the §2.3
// optimization) the transfer overlaps the next step's input-dependent
// matrix products. The Fig. 11 experiment is the n = 2 case with a
// programmable delay module sweeping the added inter-FPGA latency; the
// runtime prices every multi-device lease with the same function.

// TwoFPGAOptions configures the scale-out latency model for any group
// size; the Fig. 11 pair it is named after is the n = 2 case.
type TwoFPGAOptions struct {
	// Overlap enables the §2.3 optimization (instruction insertion +
	// reordering); without it the transfer serializes after each step.
	Overlap bool
	// Link is the inter-FPGA channel, including the programmable added
	// latency (the paper's counter+FIFO module).
	Link netmodel.Link
}

// DefaultOptions returns the standard configuration: overlap enabled over
// the default ring link.
func DefaultOptions() TwoFPGAOptions {
	return TwoFPGAOptions{Overlap: true, Link: netmodel.DefaultRingLink()}
}

// NFPGAStep returns the steady-state per-timestep latency of a layer on
// len(devices) scaled-down accelerators — the slowest device's compute
// plus the exposed (non-overlapped) communication — and, for inspection,
// the all-gather time and the overlap window of the device that hides
// least. Device i holds 1/n of every weight matrix's rows.
func NFPGAStep(spec kernels.LayerSpec, devices []string, p perf.Params, opt TwoFPGAOptions) (step, comm, window time.Duration, err error) {
	n := len(devices)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("scaleout: NFPGAStep needs >= 2 devices, got %d", n)
	}
	if spec.Hidden%n != 0 {
		return 0, 0, 0, fmt.Errorf("scaleout: hidden %d not divisible by %d devices", spec.Hidden, n)
	}
	var worstCompute time.Duration
	window = time.Duration(1 << 62)
	for _, dev := range devices {
		compute, w, err := perf.ShardStep(spec, dev, n, p)
		if err != nil {
			return 0, 0, 0, err
		}
		if compute > worstCompute {
			worstCompute = compute
		}
		if w < window {
			window = w
		}
	}

	// All-gather: every device receives the other n-1 shares (2 bytes per
	// element). On the bidirectional ring the shares stream both ways
	// concurrently, so the serialized volume per device is half the
	// missing data, but at least one share.
	share := float64(spec.Hidden) / float64(n)
	gatherWords := share * float64(n-1) / 2
	if gatherWords < share {
		gatherWords = share
	}
	comm, err = opt.Link.TransferTime(int64(gatherWords) * 2)
	if err != nil {
		return 0, 0, 0, err
	}
	if opt.Overlap {
		exposed := comm - window
		if exposed < 0 {
			exposed = 0
		}
		return worstCompute + exposed, comm, window, nil
	}
	return worstCompute + comm, comm, window, nil
}

// NFPGALatency is the full-inference latency of an n-device deployment.
func NFPGALatency(spec kernels.LayerSpec, devices []string, p perf.Params, opt TwoFPGAOptions) (time.Duration, error) {
	step, _, _, err := NFPGAStep(spec, devices, p, opt)
	if err != nil {
		return 0, err
	}
	return p.InvokeOverhead + time.Duration(spec.TimeSteps)*step, nil
}

// HiddenLatencyBudget returns the largest added inter-FPGA latency the
// overlap technique can still fully hide for a layer on two devices of one
// type (the Fig. 11 crossover).
func HiddenLatencyBudget(spec kernels.LayerSpec, device string, p perf.Params, base netmodel.Link) (time.Duration, error) {
	_, comm, window, err := NFPGAStep(spec, []string{device, device}, p, TwoFPGAOptions{Overlap: true, Link: base})
	if err != nil {
		return 0, err
	}
	budget := window - comm
	if budget < 0 {
		budget = 0
	}
	return budget, nil
}
