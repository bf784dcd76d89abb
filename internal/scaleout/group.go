package scaleout

import (
	"errors"
	"fmt"
	"sync"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/isa"
	"mlvfpga/internal/kernels"
)

// ScaledGroup is an n-FPGA deployment of one RNN layer: n scaled-down
// kernels, each computing 1/n of the hidden dimension, plus the sync
// configuration that joins them.
type ScaledGroup struct {
	Spec kernels.LayerSpec
	// Kernels[dev] is device dev's share of the layer (kernels.BuildShard):
	// layout, image, machine configuration and input/output addressing are
	// the kernel's own.
	Kernels []*kernels.Kernel
	// Progs[dev] is Kernels[dev].Prog after the insertion tool; what Run
	// executes, and what ReorderForOverlap is applied to.
	Progs []isa.Program
	// SyncCfg parameterizes the template modules. The trap addresses are
	// intentionally out of the DRAM range, as in the paper.
	SyncCfg Config
}

// BuildScaledGroup compiles a layer for n scaled-down accelerators with
// tilesPerDevice tile engines each: the single-device program scaled down
// per device, then the insertion tool. n must be 2 or 4 and divide the
// hidden dimension.
func BuildScaledGroup(w *kernels.Weights, timeSteps, tilesPerDevice, n int) (*ScaledGroup, error) {
	if n < 2 {
		return nil, fmt.Errorf("scaleout: group of %d devices (want 2 or 4)", n)
	}
	sg := &ScaledGroup{}
	for dev := 0; dev < n; dev++ {
		k, err := kernels.BuildShard(w, timeSteps, tilesPerDevice, dev, n)
		if err != nil {
			return nil, fmt.Errorf("scaleout: %w", err)
		}
		sg.Kernels = append(sg.Kernels, k)
	}
	sg.Spec = sg.Kernels[0].Spec
	dramWords := sg.Kernels[0].Cfg.DRAMWords
	sg.SyncCfg = Config{
		SendAddr:   dramWords,     // predefined out-of-range addresses
		RecvAddr:   dramWords + 1, // (paper §2.3)
		ShardWords: w.Hidden / n,
	}
	for _, k := range sg.Kernels {
		sg.Progs = append(sg.Progs, InsertSync(k.Prog, sg.SyncCfg))
	}
	return sg, nil
}

// NewMachines builds the n linked machines.
func (sg *ScaledGroup) NewMachines() ([]*accel.Machine, []*SyncModule, error) {
	inners := make([]accel.DRAM, len(sg.Kernels))
	for dev, k := range sg.Kernels {
		dram, err := k.NewDRAM()
		if err != nil {
			return nil, nil, err
		}
		inners[dev] = dram
	}
	syncs, err := NewSyncGroup(inners, sg.SyncCfg)
	if err != nil {
		return nil, nil, err
	}
	ms := make([]*accel.Machine, len(sg.Kernels))
	for dev, k := range sg.Kernels {
		if ms[dev], err = k.NewMachineOn(syncs[dev]); err != nil {
			return nil, nil, err
		}
	}
	return ms, syncs, nil
}

// SetInput broadcasts x_t to every device's DRAM.
func (sg *ScaledGroup) SetInput(ms []*accel.Machine, t int, x []float64) error {
	for dev, k := range sg.Kernels {
		if err := k.SetInput(ms[dev], t, x); err != nil {
			return err
		}
	}
	return nil
}

// ReadOutput reassembles h_t from the devices' output shards.
func (sg *ScaledGroup) ReadOutput(ms []*accel.Machine, t int) ([]float64, error) {
	out := make([]float64, 0, sg.Spec.Hidden)
	for dev, k := range sg.Kernels {
		shard, err := k.ReadOutput(ms[dev], t)
		if err != nil {
			return nil, err
		}
		out = append(out, shard...)
	}
	return out, nil
}

// Run executes all devices concurrently; a failing device aborts the
// group so the others unblock. The originating failure is returned as a
// *DeviceError naming the failed group member.
func (sg *ScaledGroup) Run(ms []*accel.Machine) error {
	var wg sync.WaitGroup
	errs := make([]error, len(ms))
	for dev := range ms {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			errs[d] = ms[d].Run(sg.Progs[d])
			if errs[d] != nil {
				if s, ok := accel.UnwrapDRAM(ms[d].DRAMPort()).(*SyncModule); ok {
					s.Abort()
				}
			}
		}(dev)
	}
	wg.Wait()
	return firstDeviceError(errs)
}

// DeviceError reports which member of a scaled deployment failed mid-run.
// It wraps the device's own error, so errors.Is still matches the root
// cause; errors.As surfaces the failed device index for placement logic.
type DeviceError struct {
	// Device is the failing member's index within the group (its shard
	// position, not a cluster-wide FPGA id).
	Device int
	Err    error
}

func (e *DeviceError) Error() string {
	return fmt.Sprintf("scaleout: device %d failed mid-group: %v", e.Device, e.Err)
}

func (e *DeviceError) Unwrap() error { return e.Err }

// firstDeviceError picks the originating failure of a group run: the first
// non-abort error (devices that merely observed the abort barrier are
// victims, not causes), falling back to the first abort error.
func firstDeviceError(errs []error) error {
	for d, err := range errs {
		if err != nil && !errors.Is(err, ErrPeerAborted) {
			return &DeviceError{Device: d, Err: err}
		}
	}
	for d, err := range errs {
		if err != nil {
			return &DeviceError{Device: d, Err: err}
		}
	}
	return nil
}
