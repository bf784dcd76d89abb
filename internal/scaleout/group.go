package scaleout

import (
	"errors"
	"fmt"

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

// Run executes the devices in lockstep on the caller's goroutine. Each
// device's program, read from sg.Progs now, is cut before every trapped
// receive, and round k runs every device's k-th segment in device order:
// a receive of round k finds the shards its peers sent in the rounds
// before it, so the §2.3 barrier is this fixed schedule. Before anything
// runs, every program must fit the instruction buffer and hold as many
// sends as receives, and as many receives as device 0's. The first
// failure returns at once as a *DeviceError naming its device.
func (sg *ScaledGroup) Run(ms []*accel.Machine) error {
	cuts := make([][]int, len(ms))
	for d := range ms {
		p := sg.Progs[d]
		if limit := sg.Kernels[d].Cfg.InstrBufBytes; limit > 0 && p.Bytes() > limit {
			return &DeviceError{Device: d, Err: fmt.Errorf("%w: %d > %d bytes", accel.ErrProgramTooLarge, p.Bytes(), limit)}
		}
		var sends int
		cuts[d], sends = sg.segments(p)
		if recvs := len(cuts[d]) - 2; recvs != sends || recvs != len(cuts[0])-2 {
			return &DeviceError{Device: d, Err: fmt.Errorf("%d sends, %d receives (device 0: %d receives)", sends, recvs, len(cuts[0])-2)}
		}
	}
	for k := 0; k+1 < len(cuts[0]); k++ {
		for d, m := range ms {
			from := cuts[d][k]
			if err := m.Run(sg.Progs[d][from:cuts[d][k+1]]); err != nil {
				if xe := (*accel.ExecError)(nil); errors.As(err, &xe) {
					xe.PC += from
				}
				return &DeviceError{Device: d, Err: err}
			}
		}
	}
	return nil
}

// segments returns the pcs that cut p before each trapped receive,
// bracketed by 0 and the end of what runs (through the first end_chain),
// and the number of trapped sends before that end.
func (sg *ScaledGroup) segments(p isa.Program) (cuts []int, sends int) {
	send, recv := uint32(sg.SyncCfg.SendAddr), uint32(sg.SyncCfg.RecvAddr)
	cuts = []int{0}
	for pc, ins := range p {
		switch {
		case ins.Op == isa.OpVRead && ins.Imm == recv:
			cuts = append(cuts, pc)
		case ins.Op == isa.OpVWrite && ins.Imm == send:
			sends++
		case ins.Op == isa.OpEndChain:
			return append(cuts, pc+1), sends
		}
	}
	return append(cuts, len(p)), sends
}

// DeviceError reports which member of a scaled deployment failed.
// It wraps the device's own error, so errors.Is still matches the root
// cause; errors.As surfaces the failed device index for placement logic.
type DeviceError struct {
	// Device is the failing member's index within the group (its shard
	// position, not a cluster-wide FPGA id).
	Device int
	Err    error
}

func (e *DeviceError) Error() string { return fmt.Sprintf("scaleout: device %d: %v", e.Device, e.Err) }

func (e *DeviceError) Unwrap() error { return e.Err }
