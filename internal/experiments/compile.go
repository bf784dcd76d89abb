package experiments

import (
	"fmt"
	"strings"
	"time"

	"mlvfpga/internal/artifactstore"
	"mlvfpga/internal/core"
	"mlvfpga/internal/hsvital"
	"mlvfpga/internal/kernels"
)

// CompileOverheadResult reproduces the §4.3 compilation-overhead
// evaluation: the framework adds three steps to the baseline flow —
// decomposing, partitioning, and mapping the scaled-down accelerators.
// The first two are negligible; the third amortizes across the instance
// catalog because scaled-down pieces are shared between instances.
type CompileOverheadResult struct {
	Instances int
	// BaselineCompile is the modelled place-and-route time of the ten
	// full instances on both device types (the pre-existing cost).
	BaselineCompile time.Duration
	// DecomposePartition is the measured wall-clock of the added
	// FPGA-independent steps across the catalog.
	DecomposePartition time.Duration
	// ExtraPieceCompile is the modelled place-and-route time of the
	// scaled-down pieces after reuse across instances.
	ExtraPieceCompile time.Duration
	// UniquePieces / TotalPieces quantify the §4.3 amortization.
	UniquePieces, TotalPieces int

	// DecomposeFrac is DecomposePartition / BaselineCompile (paper: <1%).
	DecomposeFrac float64
	// OverheadFrac is ExtraPieceCompile / BaselineCompile (paper: 24.6%).
	OverheadFrac float64
}

// CompileOverhead runs the offline flow for the 10-instance catalog and
// accounts compile time with piece reuse. The catalog sweep is the hot
// path: the ten instances compile concurrently (§4.3's per-piece builds are
// embarrassingly parallel; parallelism 1 is the sequential flow, < 1 one
// worker per logical CPU) while the reuse accounting stays sequential, so
// the result is deterministic. Over a warm store a repeat run performs zero
// compiles with identical accounting: the decompose/partition wall-clock
// rides in the cached artifact.
func CompileOverhead(parallelism int, store *artifactstore.Store) (*CompileOverheadResult, error) {
	catalog, err := core.InstanceCatalog(core.DefaultTileCounts(), 2, 1, parallelism, store)
	if err != nil {
		return nil, err
	}
	res := &CompileOverheadResult{Instances: len(catalog)}

	// pieceKey identifies a reusable scaled-down data-path piece: how many
	// tile engines it covers on which device type. A piece with k lanes is
	// the same hardware regardless of which instance's partition tree it
	// came from — this is exactly the §4.3 reuse ("most scaled-down
	// accelerators can be reused across these accelerator instances").
	// The control block is shared by all pieces and compiles once per
	// device type.
	type pieceKey struct {
		lanes  int
		device string
	}
	seen := map[pieceKey]bool{}
	for _, c := range catalog {
		res.DecomposePartition += c.DecomposeTime + c.PartitionTime
		// The baseline flow compiles each instance monolithically for every
		// device it fits on (whether or not ViTAL can host it — the
		// max-tile baselines of Table 2 occupy the whole part).
		for _, spec := range hsvital.AllSpecs() {
			dev := spec.Device.Name
			if c.Opts.Tiles > hsvital.MaxTiles(dev) {
				continue
			}
			m, err := hsvital.CalibratedAccelerator(dev, c.Opts.Tiles)
			if err != nil {
				return nil, err
			}
			res.BaselineCompile += hsvital.ModelCompileTime(m.Resources)
			seen[pieceKey{lanes: c.Opts.Tiles, device: dev}] = true
		}
		for dev, images := range c.Images {
			perTile, err := hsvital.PerTileResources(dev)
			if err != nil {
				return nil, err
			}
			for _, pi := range images {
				res.TotalPieces++
				key := pieceKey{lanes: pi.Lanes, device: dev}
				if seen[key] {
					continue // reused across instances (§4.3)
				}
				seen[key] = true
				res.UniquePieces++
				res.ExtraPieceCompile += hsvital.ModelCompileTime(perTile.Scale(int64(pi.Lanes)))
			}
		}
		// One standalone control-block compile per device type, shared by
		// every piece combination of this catalog.
	}
	for _, spec := range hsvital.AllSpecs() {
		ctrl, err := hsvital.ControlResources(spec.Device.Name)
		if err != nil {
			return nil, err
		}
		res.ExtraPieceCompile += hsvital.ModelCompileTime(ctrl)
	}
	if res.BaselineCompile > 0 {
		res.DecomposeFrac = float64(res.DecomposePartition) / float64(res.BaselineCompile)
		res.OverheadFrac = float64(res.ExtraPieceCompile) / float64(res.BaselineCompile)
	}
	return res, nil
}

// FormatCompileOverhead renders the result as text.
func FormatCompileOverhead(r *CompileOverheadResult) string {
	var sb strings.Builder
	sb.WriteString("Compilation overhead (paper section 4.3)\n")
	fmt.Fprintf(&sb, "  instances: %d, pieces compiled: %d unique of %d total\n",
		r.Instances, r.UniquePieces, r.TotalPieces)
	fmt.Fprintf(&sb, "  baseline place-and-route (modelled): %v\n", r.BaselineCompile.Round(time.Second))
	fmt.Fprintf(&sb, "  decompose+partition (measured):      %v = %.3f%% of baseline (paper: <1%%)\n",
		r.DecomposePartition.Round(time.Millisecond), 100*r.DecomposeFrac)
	fmt.Fprintf(&sb, "  scaled-down piece compile (modelled): %v = %.1f%% of baseline (paper: 24.6%%)\n",
		r.ExtraPieceCompile.Round(time.Second), 100*r.OverheadFrac)
	return sb.String()
}

// InstructionBufferRow is one §4.4 instruction-buffer fit check.
type InstructionBufferRow struct {
	Spec         kernels.LayerSpec
	ProgramBytes int
	BufferBytes  int
	Fits         bool
}

// InstructionBufferFit verifies the §4.4 claim: the entire machine code of
// every evaluated LSTM/GRU benchmark fits the on-chip instruction buffer,
// so inference avoids DRAM contention and stays performance-isolated.
func InstructionBufferFit() ([]InstructionBufferRow, error) {
	var rows []InstructionBufferRow
	for _, spec := range kernels.DeepBenchSuite() {
		w := kernels.RandomWeights(spec.Kind, 8, 1) // shape only; weights don't affect code size
		w.Hidden = 8
		k, err := kernels.Build(w, spec.TimeSteps, 1)
		if err != nil {
			return nil, err
		}
		bytes := k.Prog.Bytes()
		rows = append(rows, InstructionBufferRow{
			Spec:         spec,
			ProgramBytes: bytes,
			BufferBytes:  kernels.InstrBufBytes,
			Fits:         bytes <= kernels.InstrBufBytes,
		})
	}
	return rows, nil
}

// FormatInstructionBufferFit renders the fit table.
func FormatInstructionBufferFit(rows []InstructionBufferRow) string {
	var sb strings.Builder
	sb.WriteString("Instruction buffer fit (paper section 4.4)\n")
	for _, r := range rows {
		status := "fits"
		if !r.Fits {
			status = "EXCEEDS"
		}
		fmt.Fprintf(&sb, "  %-18s machine code %7d B of %7d B buffer (%s)\n",
			r.Spec, r.ProgramBytes, r.BufferBytes, status)
	}
	return sb.String()
}
