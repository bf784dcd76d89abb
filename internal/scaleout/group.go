package scaleout

import (
	"errors"
	"fmt"
	"sync"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/isa"
	"mlvfpga/internal/kernels"
)

// ScaledGroup is an n-FPGA deployment of one RNN layer: each device runs a
// scaled-down accelerator computing 1/n of the hidden dimension.
type ScaledGroup struct {
	Spec  kernels.LayerSpec
	N     int
	Progs []isa.Program
	// Images are the per-device initial DRAM contents (the device's rows
	// of every matrix plus its bias shards).
	Images [][]fp16.Num
	// Cfg is the per-device machine configuration (scaled-down tile count,
	// full VecLen — the exchange reassembles full h vectors).
	Cfg accel.Config
	// SyncCfg parameterizes the template modules. The trap addresses are
	// intentionally out of the DRAM range, as in the paper.
	SyncCfg Config

	inputBase, outputBase int
}

// lengthMode returns the v_rd/v_const length selector for a 1/n shard.
func lengthMode(n int) (uint8, error) {
	switch n {
	case 2:
		return 1, nil
	case 4:
		return 2, nil
	}
	return 0, fmt.Errorf("scaleout: unsupported group size %d (want 2 or 4)", n)
}

// BuildScaledGroup compiles a layer for n scaled-down accelerators with
// tilesPerDevice tile engines each. n must be 2 or 4 and divide the hidden
// dimension.
func BuildScaledGroup(w *kernels.Weights, timeSteps, tilesPerDevice, n int) (*ScaledGroup, error) {
	mode, err := lengthMode(n)
	if err != nil {
		return nil, err
	}
	if timeSteps <= 0 {
		return nil, fmt.Errorf("scaleout: timeSteps = %d", timeSteps)
	}
	if w.Kind != kernels.LSTM && w.Kind != kernels.GRU {
		return nil, fmt.Errorf("scaleout: no scaled step program for %v", w.Kind)
	}
	h := w.Hidden
	if h%n != 0 {
		return nil, fmt.Errorf("scaleout: hidden %d not divisible by %d", h, n)
	}
	shard := h / n
	spec := kernels.LayerSpec{Kind: w.Kind, Hidden: h, TimeSteps: timeSteps}
	cfg := kernels.DefaultConfig(spec, tilesPerDevice)
	sg := &ScaledGroup{Spec: spec, N: n, Cfg: cfg}

	// Matrix registers load in kernels' order: W* then U*.
	wx, uh, biases := w.Kind.GateNames()
	mats := append(append([]string{}, wx...), uh...)

	// Per-device DRAM layout: matrix shards (shard*h), bias shards, inputs
	// (full h per step), outputs (own shard per step).
	next := 0
	alloc := func(words int) int { a := next; next += words; return a }
	matAddr := map[string]int{}
	for _, name := range mats {
		matAddr[name] = alloc(shard * h)
	}
	biasAddr := map[string]int{}
	for _, name := range biases {
		biasAddr[name] = alloc(shard)
	}
	sg.inputBase = alloc(h * timeSteps)
	sg.outputBase = alloc(shard * timeSteps)
	if next > cfg.DRAMWords {
		return nil, fmt.Errorf("scaleout: layer needs %d DRAM words, have %d", next, cfg.DRAMWords)
	}
	sg.SyncCfg = Config{
		SendAddr:  cfg.DRAMWords,     // predefined out-of-range addresses
		RecvAddr:  cfg.DRAMWords + 1, // (paper §2.3)
		HalfWords: shard,
	}

	for dev := 0; dev < n; dev++ {
		image := make([]fp16.Num, sg.inputBase)
		for _, name := range mats {
			rows := w.M[name][dev*shard*h : (dev+1)*shard*h]
			copy(image[matAddr[name]:], fp16.FromSlice64(rows))
		}
		for _, name := range biases {
			half := w.B[name][dev*shard : (dev+1)*shard]
			copy(image[biasAddr[name]:], fp16.FromSlice64(half))
		}
		sg.Images = append(sg.Images, image)
	}

	// The program is identical on every device (their DRAM contents and
	// sync index registers differ).
	var p isa.Program
	for i, name := range mats {
		p = append(p, isa.Instr{Op: isa.OpMRead, Dst: uint8(i), Imm: uint32(matAddr[name])})
	}
	for i, name := range biases {
		// Bias shards load with the 1/n length mode.
		p = append(p, isa.Instr{Op: isa.OpVRead, Dst: uint8(3 + i), Src2: mode, Imm: uint32(biasAddr[name])})
	}
	p = append(p, isa.Instr{Op: isa.OpVConst, Dst: 1, Imm: 0}) // h_full = 0
	switch w.Kind {
	case kernels.LSTM:
		p = append(p, isa.Instr{Op: isa.OpVConst, Dst: 2, Src1: mode, Imm: 0}) // c_shard = 0
	case kernels.GRU:
		p = append(p, isa.Instr{Op: isa.OpVConst, Dst: 12, Src1: mode, Imm: 0}) // h_own = 0
	}
	for t := 0; t < timeSteps; t++ {
		p = append(p, isa.Instr{Op: isa.OpVRead, Dst: 0, Imm: uint32(sg.InputAddr(t))})
		switch w.Kind {
		case kernels.LSTM:
			p = append(p, scaledLSTMStep()...)
		case kernels.GRU:
			p = append(p, scaledGRUStep()...)
		}
		// Insertion tool: own shard to the peers (trapped), own shard to the
		// local output region, full h back from the sync module (barrier).
		own := uint8(14)
		if w.Kind == kernels.GRU {
			own = 12
		}
		p = append(p,
			isa.Instr{Op: isa.OpVWrite, Src1: own, Imm: uint32(sg.SyncCfg.SendAddr)},
			isa.Instr{Op: isa.OpVWrite, Src1: own, Imm: uint32(sg.OutputAddr(t))},
			isa.Instr{Op: isa.OpVRead, Dst: 1, Imm: uint32(sg.SyncCfg.RecvAddr)},
		)
	}
	p = append(p, isa.Instr{Op: isa.OpEndChain})
	for dev := 0; dev < n; dev++ {
		sg.Progs = append(sg.Progs, append(isa.Program{}, p...))
	}
	return sg, nil
}

// InputAddr returns the DRAM address of x_t.
func (sg *ScaledGroup) InputAddr(t int) int { return sg.inputBase + t*sg.Spec.Hidden }

// OutputAddr returns where a device stores its shard of h_t.
func (sg *ScaledGroup) OutputAddr(t int) int { return sg.outputBase + t*sg.Spec.Hidden/sg.N }

// NewMachines builds the n linked machines.
func (sg *ScaledGroup) NewMachines() ([]*accel.Machine, []*SyncModule, error) {
	inners := make([]accel.DRAM, sg.N)
	for i := range inners {
		inners[i] = accel.NewMemory(sg.Cfg.DRAMWords)
	}
	syncs, err := NewSyncGroup(inners, sg.SyncCfg)
	if err != nil {
		return nil, nil, err
	}
	ms := make([]*accel.Machine, sg.N)
	shard := sg.Spec.Hidden / sg.N
	wx, uh, _ := sg.Spec.Kind.GateNames()
	for dev := 0; dev < sg.N; dev++ {
		m, err := accel.NewWithDRAM(sg.Cfg, syncs[dev])
		if err != nil {
			return nil, nil, err
		}
		if err := m.DRAMPort().WriteWords(0, sg.Images[dev]); err != nil {
			return nil, nil, err
		}
		for i := 0; i < len(wx)+len(uh); i++ {
			if err := m.ConfigureMatrix(i, shard, sg.Spec.Hidden); err != nil {
				return nil, nil, err
			}
		}
		ms[dev] = m
	}
	return ms, syncs, nil
}

// SetInput broadcasts x_t to every device's DRAM.
func (sg *ScaledGroup) SetInput(ms []*accel.Machine, t int, x []float64) error {
	if len(x) != sg.Spec.Hidden {
		return fmt.Errorf("scaleout: input length %d, want %d", len(x), sg.Spec.Hidden)
	}
	words := fp16.FromSlice64(x)
	for _, m := range ms {
		if err := m.DRAMPort().WriteWords(sg.InputAddr(t), words); err != nil {
			return err
		}
	}
	return nil
}

// ReadOutput reassembles h_t from the devices' output shards.
func (sg *ScaledGroup) ReadOutput(ms []*accel.Machine, t int) ([]float64, error) {
	shard := sg.Spec.Hidden / sg.N
	out := make([]float64, 0, sg.Spec.Hidden)
	for _, m := range ms {
		words, err := m.DRAMPort().ReadWords(sg.OutputAddr(t), shard)
		if err != nil {
			return nil, err
		}
		out = append(out, fp16.ToSlice64(words)...)
	}
	return out, nil
}

// Run executes all devices concurrently; a failing device aborts the
// group so the others unblock. The originating failure is returned as a
// *DeviceError naming the failed group member, so a control plane can
// mark that device unhealthy and re-place the work instead of guessing.
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
