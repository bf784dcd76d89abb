// Package perf is the analytic timing model for GRU/LSTM inference on the
// BrainWave-like accelerator (paper §4.3, Table 4 and Fig. 11).
//
// The model is cycle-accounting: one inference of t timesteps costs a
// fixed invocation overhead (host/PCIe/chain setup) plus t per-step times.
// One step costs
//
//	issue   — in-order instruction issue, per instruction;
//	mvm     — matrix-vector multiplies: MACs / (tiles * TileMACsPerCycle)
//	          plus a pipeline fill per MVM;
//	vec     — MFU element-wise/activation passes.
//
// Virtualization (mapping onto ViTAL virtual blocks) adds the
// latency-insensitive interface cost: elastic-handshake stalls as a
// fraction of issue/compute cycles plus boundary-hop latency per step.
// Constants are calibrated against the paper's Table 4; EXPERIMENTS.md
// records the per-row deltas.
package perf

import (
	"errors"
	"fmt"
	"time"

	"mlvfpga/internal/hsvital"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/resource"
)

// Params are the calibration constants of the timing model.
type Params struct {
	// IssueCyclesPerInstr is the per-device in-order issue cost.
	IssueCyclesPerInstr map[string]float64
	// MVMFillCycles is the tile-engine pipeline fill per mv_mul.
	MVMFillCycles float64
	// VecFillCycles is the MFU pipeline fill per vector instruction.
	VecFillCycles float64
	// VecLanesPerTile is the MFU element throughput per tile per cycle.
	VecLanesPerTile float64
	// InvokeOverhead is the fixed per-inference cost (host, PCIe, chain
	// launch).
	InvokeOverhead time.Duration
	// WeightBitsPerValue is the effective on-chip storage per weight
	// (BFP mantissa plus amortized shared exponent and packing).
	WeightBitsPerValue float64
	// StallIssueFrac / StallComputeFrac are the virtualization throughput
	// losses of the latency-insensitive interfaces, applied to issue and
	// compute cycles respectively.
	StallIssueFrac   float64
	StallComputeFrac float64
}

// DefaultParams returns the calibrated constants.
func DefaultParams() Params {
	return Params{
		IssueCyclesPerInstr: map[string]float64{
			"XCVU37P": 42,
			"XCKU115": 88,
		},
		MVMFillCycles:      40,
		VecFillCycles:      12,
		VecLanesPerTile:    128,
		InvokeOverhead:     8 * time.Microsecond,
		WeightBitsPerValue: 1.82,
		StallIssueFrac:     0.05,
		StallComputeFrac:   0.10,
	}
}

// Instance is one accelerator instance deployed for a task.
type Instance struct {
	Device   string
	Tiles    int
	ClockMHz float64
}

// ErrDoesNotFit is returned when a layer's weights exceed the device's
// on-chip storage even at the maximum tile count — the Table 4 "-" entry
// (LSTM h=1536 on XCKU115).
var ErrDoesNotFit = errors.New("perf: layer does not fit device")

// WeightKb returns the on-chip weight storage a layer needs: every h×h
// matrix the cell multiplies by per step stays resident.
func WeightKb(spec kernels.LayerSpec, p Params) float64 {
	nMat := float64(kernels.MVMsPerStep(spec.Kind))
	bits := nMat * float64(spec.Hidden) * float64(spec.Hidden) * p.WeightBitsPerValue
	return bits / 1024
}

// weightFrac is the share of a tile's memory that can hold weights. On the
// XCVU37P the deep URAMs store weights almost exclusively; on the BRAM-only
// XCKU115 the same BRAMs also serve vectors, buffers and the latency-
// insensitive interfaces, leaving a smaller share (§3 discusses exactly
// this memory-organization asymmetry).
var weightFrac = map[string]float64{
	"XCVU37P": 0.99,
	"XCKU115": 0.79,
}

// tileWeightKb returns the weight storage one tile provides on a device.
func tileWeightKb(device string) (float64, error) {
	tile, err := hsvital.PerTileResources(device)
	if err != nil {
		return 0, err
	}
	frac, ok := weightFrac[device]
	if !ok {
		frac = 0.9
	}
	return frac * float64(tile.BRAMKb+tile.URAMKb), nil
}

// DeviceWeightCapacityKb is the total on-chip weight storage of the
// largest instance on a device.
func DeviceWeightCapacityKb(device string) (float64, error) {
	perTile, err := tileWeightKb(device)
	if err != nil {
		return 0, err
	}
	return perTile * float64(hsvital.MaxTiles(device)), nil
}

// MinTiles returns the smallest instance whose on-chip memory holds the
// layer's weights on the device.
func MinTiles(spec kernels.LayerSpec, device string) (int, error) {
	return MinTilesScaled(spec, device, 1)
}

// MinTilesScaled returns the per-device instance size when the layer's
// weights are sharded row-wise across nDevices scaled-down accelerators
// (the §2.3 scale-out transform).
func MinTilesScaled(spec kernels.LayerSpec, device string, nDevices int) (int, error) {
	if nDevices < 1 {
		return 0, fmt.Errorf("perf: nDevices = %d", nDevices)
	}
	p := DefaultParams()
	perTile, err := tileWeightKb(device)
	if err != nil {
		return 0, err
	}
	need := WeightKb(spec, p) / float64(nDevices)
	tiles := int(need/perTile) + 1
	if float64(tiles-1)*perTile >= need {
		tiles--
	}
	if tiles < 1 {
		tiles = 1
	}
	if tiles > hsvital.MaxTiles(device) {
		return 0, fmt.Errorf("%w: %v needs %d tiles per device across %d devices, %s holds %d",
			ErrDoesNotFit, spec, tiles, nDevices, device, hsvital.MaxTiles(device))
	}
	return tiles, nil
}

// ChooseInstance picks the instance the runtime would deploy for a layer
// on a device: the smallest tile count whose memory holds the weights
// (minimizing allocated resources, §2.3's greedy policy).
func ChooseInstance(spec kernels.LayerSpec, device string) (Instance, error) {
	tiles, err := MinTiles(spec, device)
	if err != nil {
		return Instance{}, err
	}
	m, err := hsvital.CalibratedAccelerator(device, tiles)
	if err != nil {
		return Instance{}, err
	}
	return Instance{Device: device, Tiles: tiles, ClockMHz: m.ClockMHz}, nil
}

// Breakdown itemizes one inference's modelled time.
type Breakdown struct {
	Spec     kernels.LayerSpec
	Instance Instance

	IssueCycles float64 // per step
	MVMCycles   float64 // per step
	VecCycles   float64 // per step
	HopCycles   float64 // per step (virtualized only)
	StallFrac   float64 // effective stall applied (virtualized only)

	StepTime time.Duration
	Invoke   time.Duration
	Total    time.Duration
}

// syncInstrs is what the model charges every step of a scaled-down program
// on top of the cell's own instructions: the send and the blocking receive
// the §2.3 insertion tool adds, and one more slot for the store of the own
// shard — which StepInstructions already counts, so a shard step is priced
// one issue slot high. The committed scale-out goldens carry that slot;
// ROADMAP item G's audit owns changing it.
const syncInstrs = 3

// stepCycles computes the per-step cycle breakdown of one device that holds
// rows of the layer's h matrix rows and issues extra inserted instructions
// per step on top of the cell's own: (h, 0) on a single device,
// (h/n, syncInstrs) on a member of an n-device scale-out. perMVM and perVec
// are the cost of one mv_mul and of one MFU pass, which the overlap window
// is assembled from.
func stepCycles(spec kernels.LayerSpec, inst Instance, p Params, rows, extra float64) (issue, mvm, vec, perMVM, perVec float64) {
	h := float64(spec.Hidden)
	nInstr := float64(kernels.StepInstructions(spec.Kind)) + extra
	issue = p.IssueCyclesPerInstr[inst.Device] * nInstr

	nMVM := float64(kernels.MVMsPerStep(spec.Kind))
	macsPerCycle := float64(inst.Tiles) * hsvital.TileMACsPerCycle
	perMVM = rows*h/macsPerCycle + p.MVMFillCycles
	mvm = nMVM * perMVM

	nVec := nInstr - nMVM - 2 - extra // minus the per-step v_rd and v_wr and the inserted instructions
	lanes := float64(inst.Tiles) * p.VecLanesPerTile
	perVec = rows/lanes + p.VecFillCycles
	vec = nVec * perVec
	return issue, mvm, vec, perMVM, perVec
}

// ShardStep prices one member of an n-device scale-out (§2.3) in steady
// state: the per-step compute time of the smallest instance on device that
// holds 1/n of every weight matrix's rows, and the overlap window — the
// x-dependent work of the next step that the reordering tool schedules
// ahead of the blocking receive, which hides that much of the exchange.
func ShardStep(spec kernels.LayerSpec, device string, n int, p Params) (compute, window time.Duration, err error) {
	tiles, err := MinTilesScaled(spec, device, n)
	if err != nil {
		return 0, 0, err
	}
	m, err := hsvital.CalibratedAccelerator(device, tiles)
	if err != nil {
		return 0, 0, err
	}
	inst := Instance{Device: device, Tiles: tiles, ClockMHz: m.ClockMHz}
	rows := float64(spec.Hidden) / float64(n)
	issue, mvm, vec, perMVM, perVec := stepCycles(spec, inst, p, rows, syncInstrs)
	compute = cyclesToTime(issue+mvm+vec, inst.ClockMHz)

	// Per overlapped gate the window holds one W*x matrix-vector product
	// plus its bias add — two issue slots, one MVM pass and one MFU pass.
	// For the LSTM all four gates qualify; in the GRU the candidate gate's
	// product serializes behind the reset gate, leaving two; of the
	// attention cell's projections the three x-only ones (q, k, v) qualify
	// and Wo waits on the normalized state.
	overlapGates := 4.0
	switch spec.Kind {
	case kernels.GRU:
		overlapGates = 2.0
	case kernels.Attention:
		overlapGates = 3.0
	}
	windowCycles := overlapGates * (perMVM + 2*p.IssueCyclesPerInstr[device] + perVec)
	return compute, cyclesToTime(windowCycles, inst.ClockMHz), nil
}

// Baseline models one inference on the non-virtualized accelerator (the
// AS ISA-only baseline system of Table 4).
func Baseline(spec kernels.LayerSpec, inst Instance, p Params) Breakdown {
	issue, mvm, vec, _, _ := stepCycles(spec, inst, p, float64(spec.Hidden), 0)
	cyclesPerStep := issue + mvm + vec
	step := cyclesToTime(cyclesPerStep, inst.ClockMHz)
	total := p.InvokeOverhead + time.Duration(spec.TimeSteps)*step
	return Breakdown{
		Spec: spec, Instance: inst,
		IssueCycles: issue, MVMCycles: mvm, VecCycles: vec,
		StepTime: step, Invoke: p.InvokeOverhead, Total: total,
	}
}

// Virtualized models the same inference with the accelerator mapped onto
// ViTAL virtual blocks: handshake stalls scale issue/compute cycles and
// each latency-insensitive boundary hop adds pipeline latency per step.
// hops comes from hsvital.Image.Hops.
func Virtualized(spec kernels.LayerSpec, inst Instance, hops int, p Params) (Breakdown, error) {
	vspec, err := hsvital.SpecFor(inst.Device)
	if err != nil {
		return Breakdown{}, err
	}
	issue, mvm, vec, _, _ := stepCycles(spec, inst, p, float64(spec.Hidden), 0)
	issueV := issue * (1 + p.StallIssueFrac)
	computeV := (mvm + vec) * (1 + p.StallComputeFrac)
	hopCycles := float64(hops * vspec.InterfaceLatencyCycles)
	cyclesPerStep := issueV + computeV + hopCycles
	step := cyclesToTime(cyclesPerStep, inst.ClockMHz)
	total := p.InvokeOverhead + time.Duration(spec.TimeSteps)*step
	base := issue + mvm + vec
	return Breakdown{
		Spec: spec, Instance: inst,
		IssueCycles: issueV, MVMCycles: mvm * (1 + p.StallComputeFrac),
		VecCycles: vec * (1 + p.StallComputeFrac), HopCycles: hopCycles,
		StallFrac: (cyclesPerStep - base) / base,
		StepTime:  step, Invoke: p.InvokeOverhead, Total: total,
	}, nil
}

// StreamingLatency models the AS ISA-only fallback for layers whose
// weights exceed the device's on-chip storage: the maximum instance is
// deployed and the weights stream from on-board DRAM every timestep, so
// the step time is bounded below by weight volume over DRAM bandwidth.
// This is how the per-device baseline system serves large tasks that the
// proposed framework would instead scale out across FPGAs.
func StreamingLatency(spec kernels.LayerSpec, device string, p Params) (Breakdown, error) {
	m, err := hsvital.CalibratedAccelerator(device, hsvital.MaxTiles(device))
	if err != nil {
		return Breakdown{}, err
	}
	dev, err := resource.LookupDevice(device)
	if err != nil {
		return Breakdown{}, err
	}
	inst := Instance{Device: device, Tiles: m.Tiles, ClockMHz: m.ClockMHz}
	b := Baseline(spec, inst, p)
	// Only the overflow past the on-chip capacity streams from DRAM each
	// step; the resident portion is reused.
	capKb, err := DeviceWeightCapacityKb(device)
	if err != nil {
		return Breakdown{}, err
	}
	overflowKb := WeightKb(spec, p) - capKb
	if overflowKb > 0 {
		overflowBytes := overflowKb * 1024 / 8
		streamTime := time.Duration(overflowBytes / (dev.DRAMBandwidthGBs * 1e9) * float64(time.Second))
		b.StepTime += streamTime
	}
	b.Total = b.Invoke + time.Duration(spec.TimeSteps)*b.StepTime
	return b, nil
}

func cyclesToTime(cycles, clockMHz float64) time.Duration {
	return time.Duration(cycles / clockMHz * float64(time.Microsecond))
}

// OverheadFrac compares a virtualized breakdown to its baseline: the
// Table 4 "Overhead" column.
func OverheadFrac(base, virt Breakdown) float64 {
	if base.Total == 0 {
		return 0
	}
	return float64(virt.Total-base.Total) / float64(base.Total)
}
