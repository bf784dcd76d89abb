// Package hsvital models the hardware-specific (HS) abstraction the paper
// builds on: ViTAL [53] divides each FPGA into identical virtual blocks
// connected by latency-insensitive interfaces, shared by multiple tenants
// at sub-FPGA granularity and managed by a low-level controller.
//
// Because Vivado and physical FPGAs are unavailable here, the
// implementation results are an analytic model calibrated to the paper's
// published numbers (Tables 2 and 3) — see DESIGN.md §2 for the
// substitution rationale. The calibration constants below reproduce:
//
//   - Table 2: the baseline BrainWave-like accelerator fitted to each
//     device (BW-V37: 21 tiles, 400 MHz, 36 TFLOPS; BW-K115: 13 tiles,
//     300 MHz, 16.7 TFLOPS) with the published LUT/DFF/BRAM/URAM/DSP usage;
//   - Table 3: one virtual block per device type.
//
// The compiler maps a soft block (a cluster from the partitioning step)
// onto virtual blocks of a device type, reporting the block count, the
// latency-insensitive boundary hops on the data path's critical path, and
// a modelled place-and-route time used by the §4.3 compilation-overhead
// evaluation.
package hsvital

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"mlvfpga/internal/resource"
	"mlvfpga/internal/softblock"
)

// TileMACsPerCycle is the multiply-accumulate throughput of one tile
// engine. Both baseline rows of Table 2 are consistent with ~2142
// MACs/cycle/tile (36 TFLOPS / 2 / 400 MHz / 21 and 16.7 / 2 / 300 MHz /
// 13).
const TileMACsPerCycle = 2142

// Spec describes the virtual-block abstraction of one device type.
type Spec struct {
	// Device is the physical part.
	Device resource.Device
	// BlocksPerDevice is how many virtual blocks ViTAL carves out of the
	// part (the remainder hosts the shell).
	BlocksPerDevice int
	// BlockUsable is the resource capacity a mapped design can actually
	// use within one virtual block — Table 3's reported usage at the
	// published utilization.
	BlockUsable resource.Vector
	// ClockMHz is the virtual block clock (Table 3).
	ClockMHz float64
	// BlockPeakTFLOPS is one virtual block's peak throughput (Table 3).
	BlockPeakTFLOPS float64
	// InterfaceLatencyCycles is the added pipeline latency per virtual
	// block boundary crossing (the latency-insensitive interface).
	InterfaceLatencyCycles int
	// HandshakeStallFrac is the steady-state throughput loss of the
	// elastic (valid/ready) interfaces, as a fraction of compute cycles.
	HandshakeStallFrac float64
}

// Table 3 calibration.
var (
	specVU37P = Spec{
		Device:          resource.XCVU37P,
		BlocksPerDevice: 12,
		BlockUsable: resource.Vector{
			LUTs: 44900, DFFs: 48800, BRAMKb: 3994, URAMKb: 2150, DSPs: 576,
		},
		ClockMHz:               400,
		BlockPeakTFLOPS:        3.69,
		InterfaceLatencyCycles: 8,
		HandshakeStallFrac:     0.052,
	}
	specKU115 = Spec{
		Device:          resource.XCKU115,
		BlocksPerDevice: 9,
		BlockUsable: resource.Vector{
			LUTs: 39900, DFFs: 34900, BRAMKb: 4608, URAMKb: 0, DSPs: 552,
		},
		ClockMHz:               300,
		BlockPeakTFLOPS:        2.07,
		InterfaceLatencyCycles: 8,
		HandshakeStallFrac:     0.052,
	}
)

// AllSpecs lists the virtual-block specs of every device type in the
// cluster, largest first.
func AllSpecs() []Spec { return []Spec{specVU37P, specKU115} }

// ErrUnknownSpec is returned for devices without a ViTAL calibration.
var ErrUnknownSpec = errors.New("hsvital: no virtual-block spec for device")

// SpecFor returns the spec for a device type name.
func SpecFor(device string) (Spec, error) {
	for _, s := range AllSpecs() {
		if s.Device.Name == device {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("%w: %q", ErrUnknownSpec, device)
}

// ---------------------------------------------------------------------------
// Table 2: calibrated baseline accelerator model.

// AccelModel is one accelerator instance fitted to a device (a Table 2
// row, generalized over the tile count).
type AccelModel struct {
	Device     string
	Tiles      int
	Resources  resource.Vector
	ClockMHz   float64
	PeakTFLOPS float64
}

// accelCalib holds the per-device control and per-tile resource costs
// reverse-fitted from Table 2.
type accelCalib struct {
	control  resource.Vector
	perTile  resource.Vector
	maxTiles int
	clockMHz float64
}

var accelCalibs = map[string]accelCalib{
	// BW-V37: 21 tiles -> 610k LUT, 659k DFF, 51.5 Mb BRAM, 22.5 Mb URAM,
	// 7517 DSP at 400 MHz.
	"XCVU37P": {
		control:  resource.Vector{LUTs: 40000, DFFs: 29000, BRAMKb: 4448, URAMKb: 0, DSPs: 20},
		perTile:  resource.Vector{LUTs: 27143, DFFs: 30000, BRAMKb: 2299, URAMKb: 1097, DSPs: 357},
		maxTiles: 21,
		clockMHz: 400,
	},
	// BW-K115: 13 tiles -> 367k LUT, 386k DFF, 45.4 Mb BRAM, 5073 DSP at
	// 300 MHz. Weights live entirely in BRAM (no URAM on this part, §3).
	"XCKU115": {
		control:  resource.Vector{LUTs: 40000, DFFs: 29000, BRAMKb: 4448, URAMKb: 0, DSPs: 16},
		perTile:  resource.Vector{LUTs: 25154, DFFs: 27462, BRAMKb: 3234, URAMKb: 0, DSPs: 389},
		maxTiles: 13,
		clockMHz: 300,
	},
}

// MaxTiles returns the largest instance that fits the device (the Table 2
// baselines: 21 on XCVU37P, 13 on XCKU115).
func MaxTiles(device string) int {
	if c, ok := accelCalibs[device]; ok {
		return c.maxTiles
	}
	return 0
}

// CalibratedAccelerator returns the modelled implementation results for an
// instance with the given tile count on the device.
func CalibratedAccelerator(device string, tiles int) (AccelModel, error) {
	c, ok := accelCalibs[device]
	if !ok {
		return AccelModel{}, fmt.Errorf("%w: %q", ErrUnknownSpec, device)
	}
	if tiles < 1 || tiles > c.maxTiles {
		return AccelModel{}, fmt.Errorf("hsvital: %d tiles out of range [1,%d] for %s",
			tiles, c.maxTiles, device)
	}
	return AccelModel{
		Device:     device,
		Tiles:      tiles,
		Resources:  c.control.Add(c.perTile.Scale(int64(tiles))),
		ClockMHz:   c.clockMHz,
		PeakTFLOPS: 2 * float64(tiles) * TileMACsPerCycle * c.clockMHz * 1e6 / 1e12,
	}, nil
}

// ControlResources returns the calibrated control-path cost on a device.
func ControlResources(device string) (resource.Vector, error) {
	c, ok := accelCalibs[device]
	if !ok {
		return resource.Vector{}, fmt.Errorf("%w: %q", ErrUnknownSpec, device)
	}
	return c.control, nil
}

// PerTileResources returns the calibrated per-tile cost on a device.
func PerTileResources(device string) (resource.Vector, error) {
	c, ok := accelCalibs[device]
	if !ok {
		return resource.Vector{}, fmt.Errorf("%w: %q", ErrUnknownSpec, device)
	}
	return c.perTile, nil
}

// ---------------------------------------------------------------------------
// Compiler: soft block -> virtual blocks.

// ErrNoFit is returned when a soft block cannot be mapped onto the
// device's virtual blocks (e.g. it demands URAM on a URAM-less part, or
// needs more blocks than one device provides — repartition and retry).
var ErrNoFit = errors.New("hsvital: soft block does not fit device")

// Image is the result of mapping one soft block onto one device type's
// virtual-block abstraction: the deployable unit the runtime allocates.
type Image struct {
	// PieceID is the soft block's ID.
	PieceID string
	// Device is the target device type.
	Device string
	// Blocks is the number of virtual blocks the piece occupies.
	Blocks int
	// Hops is the number of latency-insensitive boundary crossings on the
	// data path's critical path.
	Hops int
	// Resources is the demand used for the block count.
	Resources resource.Vector
	// ClockMHz is the achieved frequency.
	ClockMHz float64
	// CompileTime is the modelled place-and-route time for this image.
	CompileTime time.Duration
}

// BlocksFor computes how many virtual blocks a resource demand occupies on
// a device type, the quantity the runtime manager packs against free
// blocks.
func BlocksFor(need resource.Vector, spec Spec) (int, error) {
	if blocks, ok := blocksFor(need, spec); ok {
		return blocks, nil
	}
	i := slices.IndexFunc(resource.Kinds[:], func(k resource.Kind) bool {
		return need.Get(k) != 0 && spec.BlockUsable.Get(k) == 0
	})
	return 0, fmt.Errorf("%w: needs %d %v, device %s has none",
		ErrNoFit, need.Get(resource.Kinds[i]), resource.Kinds[i], spec.Device.Name)
}

// blocksFor is BlocksFor without the message: false means the device
// lacks a resource the demand needs.
func blocksFor(need resource.Vector, spec Spec) (int, bool) {
	blocks := 1
	for _, k := range resource.Kinds {
		n, cap := need.Get(k), spec.BlockUsable.Get(k)
		if n == 0 {
			continue
		}
		if cap == 0 {
			return 0, false
		}
		blocks = max(blocks, int((n+cap-1)/cap))
	}
	return blocks, true
}

// Compile maps a soft block onto the virtual-block abstraction of one
// device type. patternAware selects the paper's partition tool, which
// avoids placing a SIMD lane's internal pipeline across virtual blocks
// (§4.3); false models ViTAL's pattern-oblivious partitioner, used as an
// ablation baseline. A misfit gets the bare ErrNoFit: its one caller skips
// it, so a message would be built for nobody.
func Compile(piece *softblock.Block, spec Spec, patternAware bool) (Image, error) {
	if piece == nil {
		return Image{}, errors.New("hsvital: nil soft block")
	}
	blocks, ok := blocksFor(piece.Resources, spec)
	if !ok || blocks > spec.BlocksPerDevice {
		return Image{}, ErrNoFit
	}
	hops := boundaryHops(piece, spec, blocks, patternAware)
	return Image{
		PieceID:     piece.ID,
		Device:      spec.Device.Name,
		Blocks:      blocks,
		Hops:        hops,
		Resources:   piece.Resources,
		ClockMHz:    spec.ClockMHz,
		CompileTime: ModelCompileTime(piece.Resources),
	}, nil
}

// boundaryHops estimates the latency-insensitive interface crossings on
// the critical path. With the pattern-aware partitioner each SIMD lane's
// pipeline stays inside virtual blocks whenever a lane fits one block, so
// a data element crosses only the lane's own block boundaries plus one
// hop into and out of the region. The pattern-oblivious partitioner slices
// the design by area, so the critical path crosses on the order of every
// block boundary.
func boundaryHops(piece *softblock.Block, spec Spec, blocks int, patternAware bool) int {
	if !patternAware {
		if blocks < 1 {
			return 1
		}
		return blocks + 1
	}
	lane := piece
	if piece.Kind == softblock.DataParallel && len(piece.Children) > 0 {
		lane = piece.Children[0]
	}
	laneBlocks, ok := blocksFor(lane.Resources, spec)
	if !ok || laneBlocks < 1 {
		laneBlocks = 1
	}
	return laneBlocks + 1
}

// ModelCompileTime is the place-and-route time model: a fixed setup cost
// plus time proportional to logic volume. Calibrated so the full 21-tile
// XCVU37P baseline costs ~5.3 hours, typical for a highly utilized
// UltraScale+ part.
func ModelCompileTime(need resource.Vector) time.Duration {
	// Place-and-route effort grows superlinearly with logic volume: a
	// highly utilized UltraScale+ part takes disproportionally longer than
	// a lightly loaded one (congestion-driven iterations). The exponent
	// and scale put the full 21-tile XCVU37P baseline at ~4 hours and a
	// single-lane piece at ~10 minutes.
	const (
		setupSec = 300.0
		scale    = 2.6e-6
		exponent = 1.7
	)
	sec := setupSec + scale*math.Pow(float64(need.LUTs), exponent) + 0.012*float64(need.DSPs)
	return time.Duration(sec * float64(time.Second))
}
