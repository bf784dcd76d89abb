// Package core ties the framework's custom tools into the offline
// compilation flow of Fig. 1c: generate (or accept) the AS ISA-based
// accelerator's RTL, decompose it onto the system abstraction (§2.2.1),
// partition the data-path tree (§2.2.2), and map every partition piece
// onto the HS abstraction of every feasible device type so the runtime can
// deploy flexibly. It also measures the wall-clock cost of the added steps
// for the §4.3 compilation-overhead evaluation.
package core

import (
	"errors"
	"fmt"
	"time"

	"mlvfpga/internal/bwrtl"
	"mlvfpga/internal/decompose"
	"mlvfpga/internal/hsvital"
	"mlvfpga/internal/partition"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rtl"
	"mlvfpga/internal/softblock"
)

// Options configures the offline flow.
type Options struct {
	// Tiles is the accelerator instance's tile-engine count.
	Tiles int
	// PartitionIterations is N in Fig. 6 (deployments up to 2^N devices).
	PartitionIterations int
	// Seed drives the equivalence checker.
	Seed int64
	// PatternAware selects the framework's partition tool when mapping
	// onto virtual blocks (§4.3); false falls back to ViTAL's own.
	PatternAware bool
}

// PieceImage is one partition piece compiled for one device type.
type PieceImage struct {
	Piece *partition.Node
	Image *hsvital.Image
	// Lanes is how many of the instance's tile engines the piece covers.
	Lanes int
	// WithControl marks the piece that also hosts the control block.
	WithControl bool
}

// Compiled is the outcome of the offline flow for one accelerator
// instance: everything the runtime's mapping-result database stores.
type Compiled struct {
	Opts Options
	// Accelerator is the decomposed design (control block + data tree).
	Accelerator *softblock.Accelerator
	// Partition is the Fig. 6 binary partition tree.
	Partition *partition.Result
	// Images maps device type -> compiled images for every partition
	// piece feasible on that type.
	Images map[string][]PieceImage
	// Timing of the added compilation steps (measured, §4.3).
	DecomposeTime time.Duration
	PartitionTime time.Duration
	// HSCompileTime is the modelled place-and-route time summed over all
	// images (the dominant, pre-existing cost).
	HSCompileTime time.Duration
	// Stats reports what the decomposer did.
	DecomposeStats decompose.Stats
}

// ErrNoImages is returned when no partition piece maps onto any device.
var ErrNoImages = errors.New("core: accelerator maps onto no device type")

// CompileAccelerator runs the full offline flow for a BrainWave-like
// instance with opts.Tiles tile engines.
func CompileAccelerator(opts Options) (*Compiled, error) {
	if opts.Tiles < 1 {
		return nil, fmt.Errorf("core: tiles = %d", opts.Tiles)
	}
	if opts.PartitionIterations < 0 {
		return nil, fmt.Errorf("core: iterations = %d", opts.PartitionIterations)
	}

	// Generate and parse the RTL (URAM variant as the canonical source;
	// the memory module re-parameterizes per target, §3).
	src, err := bwrtl.Generate(bwrtl.Profile{Tiles: opts.Tiles, UseURAM: true})
	if err != nil {
		return nil, err
	}
	design, err := rtl.ParseDesign(src, bwrtl.TopModule)
	if err != nil {
		return nil, err
	}

	// Decomposing step (§2.2.1). The result is FPGA-independent and is
	// reused across device types, which is what keeps the added
	// compilation cost negligible (§4.3).
	t0 := time.Now()
	dres, err := decompose.Decompose(design, bwrtl.TopModule, nil, decompose.Options{
		ControlModules: bwrtl.ControlModules(),
		Seed:           opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	decomposeTime := time.Since(t0)

	// Partitioning step (§2.2.2), also FPGA-independent.
	t1 := time.Now()
	pres, err := partition.Partition(dres.Accelerator.Data, opts.PartitionIterations)
	if err != nil {
		return nil, err
	}
	partitionTime := time.Since(t1)

	specs := hsvital.AllSpecs()
	c := &Compiled{
		Opts:           opts,
		Accelerator:    dres.Accelerator,
		Partition:      pres,
		Images:         make(map[string][]PieceImage, len(specs)),
		DecomposeTime:  decomposeTime,
		PartitionTime:  partitionTime,
		DecomposeStats: dres.Stats,
	}

	// Map every piece onto the HS abstraction of every feasible device
	// type (Fig. 5), with per-target calibrated resources: the soft-block
	// annotations from RTL estimation are relative; the Table 2
	// calibration provides the absolute per-target implementation costs.
	// Every device type's images are cut from one array of each.
	pieces := c.Partition.AllPieces()
	all := make([]PieceImage, 0, len(specs)*len(pieces))
	imgs := make([]hsvital.Image, 0, len(specs)*len(pieces))
	var scratch softblock.Slab
	for _, spec := range specs {
		perTile, err := hsvital.PerTileResources(spec.Device.Name)
		if err != nil {
			return nil, err
		}
		first := len(all)
		for i, node := range pieces {
			lanes := countLanes(node.Block)
			res := perTile.Scale(int64(lanes))
			withControl := i == 0 // the root piece hosts the control block
			if withControl {
				ctrl, err := hsvital.ControlResources(spec.Device.Name)
				if err != nil {
					return nil, err
				}
				res = res.Add(ctrl)
			}
			img, err := hsvital.Compile(calibratedBlock(&scratch, node.Block, res), spec, opts.PatternAware)
			if err != nil {
				continue // piece infeasible on this device type
			}
			c.HSCompileTime += img.CompileTime
			imgs = append(imgs, img)
			all = append(all, PieceImage{
				Piece: node, Image: &imgs[len(imgs)-1], Lanes: lanes, WithControl: withControl,
			})
		}
		if len(all) > first {
			c.Images[spec.Device.Name] = all[first:len(all):len(all)]
		}
	}
	if len(c.Images) == 0 {
		return nil, ErrNoImages
	}
	return c, nil
}

// countLanes counts the tile-engine pipelines a data subtree covers: a
// leaf inside one lane counts via its pipeline parent, so the lane count
// is the number of data-parallel members at the top of the subtree (or 1
// for a single lane / lane fragment).
func countLanes(b *softblock.Block) int {
	if b.Kind == softblock.DataParallel {
		n := 0
		for _, ch := range b.Children {
			n += countLanes(ch)
		}
		return n
	}
	return 1
}

// calibratedBlock wraps a partition piece with calibrated absolute
// resources for one target, preserving its structure for the hop analysis.
// The copy lives in scratch until the next call: hsvital.Compile keeps
// nothing of the block it maps.
func calibratedBlock(scratch *softblock.Slab, b *softblock.Block, res resource.Vector) *softblock.Block {
	scratch.Reset()
	cp := scratch.Clone(b)
	// Distribute the calibrated total uniformly over the lanes so the
	// per-lane fit analysis in hsvital.Compile stays meaningful.
	lanes := countLanes(cp)
	if lanes < 1 {
		lanes = 1
	}
	perLane := res.Div(int64(lanes))
	// Overwrite the leaf annotations lane-by-lane, then roll up.
	setLane := func(lane *softblock.Block) {
		if n := lane.NumLeaves(); n > 0 {
			setLeaves(lane, perLane.Div(int64(n)))
		}
	}
	if cp.Kind == softblock.DataParallel {
		for _, lane := range cp.Children {
			setLane(lane)
		}
	} else {
		setLane(cp)
	}
	cp.Recompute()
	// Rounding may drop a few units against the calibrated total; pin the
	// root annotation to the exact calibrated value.
	cp.Resources = res
	return cp
}

// setLeaves annotates every leaf of the subtree with res.
func setLeaves(b *softblock.Block, res resource.Vector) {
	if b.Kind == softblock.Leaf {
		b.Resources = res
		return
	}
	for _, c := range b.Children {
		setLeaves(c, res)
	}
}

// DefaultTileCounts is the 10-instance catalog of §4.3.
func DefaultTileCounts() []int {
	return []int{1, 2, 3, 4, 6, 8, 10, 13, 17, 21}
}
