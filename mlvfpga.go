// Package mlvfpga is a from-scratch reproduction of "When
// Application-Specific ISA Meets FPGAs: A Multi-layer Virtualization
// Framework for Heterogeneous Cloud FPGAs" (Zha & Li, ASPLOS 2021).
//
// The package is the public facade over the framework's layers:
//
//   - an RTL substrate (Verilog-subset parser, elaborator, simulator,
//     equivalence checker) and a generated BrainWave-like accelerator;
//   - the paper's system abstraction: soft-block trees built from the two
//     primitive parallel patterns (data and pipeline parallelism);
//   - the custom tools: the decomposing step (§2.2.1), the partitioning
//     step (§2.2.2), compilation onto a ViTAL-like virtual-block
//     abstraction, and the scale-out optimization (§2.3);
//   - a functional AS ISA simulator with BFP/float16 numerics, calibrated
//     timing models, and a runtime management system evaluated by
//     discrete-event simulation of the paper's 3x XCVU37P + 1x XCKU115
//     cluster.
//
// Every table and figure of the paper's evaluation can be regenerated; see
// the Reproduce* functions, the benchmarks in bench_test.go, and
// `mlv repro`.
package mlvfpga

import (
	"fmt"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/bwrtl"
	"mlvfpga/internal/core"
	"mlvfpga/internal/decompose"
	"mlvfpga/internal/experiments"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/partition"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/rtl"
	"mlvfpga/internal/softblock"
	"mlvfpga/internal/workload"
)

// Core abstraction types, re-exported for API users.
type (
	// Accelerator is a decomposed AS ISA-based accelerator: the control
	// soft block plus the data-path soft-block tree.
	Accelerator = softblock.Accelerator
	// SoftBlock is one node of the soft-block tree (§2.1).
	SoftBlock = softblock.Block
	// BlockKind classifies soft blocks (leaf / data / pipeline).
	BlockKind = softblock.Kind
	// Design is a parsed RTL design.
	Design = rtl.Design
	// PartitionResult is the Fig. 6 binary partition tree.
	PartitionResult = partition.Result
	// Compiled is the full offline-flow output for one instance.
	Compiled = core.Compiled
	// CompileOptions configures the offline flow; one compile runs on
	// its caller's goroutine.
	CompileOptions = core.Options
	// LayerSpec identifies a GRU/LSTM benchmark layer.
	LayerSpec = kernels.LayerSpec
	// Machine is the functional AS ISA accelerator simulator.
	Machine = accel.Machine
	// ResourceVector counts FPGA resources.
	ResourceVector = resource.Vector
)

// Soft-block kinds.
const (
	Leaf         = softblock.Leaf
	DataParallel = softblock.DataParallel
	Pipeline     = softblock.Pipeline
)

// RNN cell kinds.
const (
	LSTM = kernels.LSTM
	GRU  = kernels.GRU
)

// GenerateAcceleratorRTL emits the Verilog of a BrainWave-like accelerator
// instance with the given number of tile engines (§3, Fig. 9). useURAM
// selects the UltraRAM weight-memory variant (XCVU37P targets).
func GenerateAcceleratorRTL(tiles int, useURAM bool) (string, error) {
	return bwrtl.Generate(bwrtl.Profile{Tiles: tiles, UseURAM: useURAM})
}

// AcceleratorTopModule is the generated design's top-level module name.
const AcceleratorTopModule = bwrtl.TopModule

// AcceleratorControlModules lists the module names the designer marks as
// the control path for the decomposing tool.
func AcceleratorControlModules() []string { return bwrtl.ControlModules() }

// ParseRTL parses Verilog-subset source into a design rooted at top.
func ParseRTL(src, top string) (*Design, error) { return rtl.ParseDesign(src, top) }

// Decompose runs the §2.2.1 decomposing step on a design: the control path
// (marked by module name) becomes one soft block, and the data path is
// decomposed into a tree of the two primitive parallel patterns.
func Decompose(d *Design, top string, controlModules []string, seed int64) (*Accelerator, error) {
	res, err := decompose.Decompose(d, top, nil, decompose.Options{
		ControlModules: controlModules,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	return res.Accelerator, nil
}

// Partition runs the §2.2.2 iterative bisection on a decomposed data path:
// pipeline nodes cut at the minimal-bandwidth connection, data-parallel
// nodes split evenly. N iterations support deployments onto up to 2^N
// devices.
func Partition(acc *Accelerator, iterations int) (*PartitionResult, error) {
	if acc == nil {
		return nil, fmt.Errorf("mlvfpga: nil accelerator")
	}
	return partition.Partition(acc.Data, iterations)
}

// CompileInstance runs the whole offline flow (generate RTL, decompose,
// partition, map onto every device type's virtual-block abstraction) for a
// BrainWave-like instance, on the caller's goroutine, at seed 1 with
// pattern-aware decomposition; CompileInstanceWithOptions sets the rest.
func CompileInstance(tiles, partitionIterations int) (*Compiled, error) {
	return CompileInstanceWithOptions(CompileOptions{
		Tiles:               tiles,
		PartitionIterations: partitionIterations,
		Seed:                1,
		PatternAware:        true,
	})
}

// CompileInstanceWithOptions runs the offline flow with explicit options
// (see CompileOptions).
func CompileInstanceWithOptions(opts CompileOptions) (*Compiled, error) {
	return core.CompileAccelerator(opts)
}

// InferenceResult reports a functional-simulation run.
type InferenceResult struct {
	// Outputs holds h_t per timestep.
	Outputs [][]float64
	// Reference holds the float64 golden model's h_t per timestep.
	Reference [][]float64
	// MaxAbsError is the worst element error against the reference.
	MaxAbsError float64
	// Instructions executed on the simulator.
	Instructions int
	// MACs performed by the tile engines.
	MACs int64
}

// RunInference builds an LSTM/GRU kernel with random weights, executes it
// on the functional AS ISA simulator (BFP matrix math, float16 vector
// ops), and compares every timestep against the float64 reference.
func RunInference(spec LayerSpec, inputs [][]float64, seed int64) (*InferenceResult, error) {
	if len(inputs) != spec.TimeSteps {
		return nil, fmt.Errorf("mlvfpga: %d inputs for %d timesteps", len(inputs), spec.TimeSteps)
	}
	w := kernels.RandomWeights(spec.Kind, spec.Hidden, seed)
	k, err := kernels.Build(w, spec.TimeSteps, 2)
	if err != nil {
		return nil, err
	}
	k.Cfg.MantissaBits = 9
	m, err := k.NewMachine()
	if err != nil {
		return nil, err
	}
	for t, x := range inputs {
		if err := k.SetInput(m, t, x); err != nil {
			return nil, err
		}
	}
	if err := m.Run(k.Prog); err != nil {
		return nil, err
	}
	ref := kernels.NewReference(w)
	out := &InferenceResult{}
	for t, x := range inputs {
		want, err := ref.Step(x)
		if err != nil {
			return nil, err
		}
		got, err := k.ReadOutput(m, t)
		if err != nil {
			return nil, err
		}
		out.Outputs = append(out.Outputs, got)
		out.Reference = append(out.Reference, want)
		for i := range want {
			if d := abs(got[i] - want[i]); d > out.MaxAbsError {
				out.MaxAbsError = d
			}
		}
	}
	st := m.Stats()
	out.Instructions = st.Instructions
	out.MACs = st.MACs
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// PredictLatency returns the modelled inference latency of a layer on a
// device under the baseline (AS ISA-only) and virtualized deployments,
// plus the virtualization overhead fraction (Table 4).
func PredictLatency(spec LayerSpec, device string) (baseline, virtualized float64, overhead float64, err error) {
	p := perf.DefaultParams()
	inst, err := perf.ChooseInstance(spec, device)
	if err != nil {
		return 0, 0, 0, err
	}
	b := perf.Baseline(spec, inst, p)
	v, err := perf.Virtualized(spec, inst, 2, p)
	if err != nil {
		return 0, 0, 0, err
	}
	return b.Total.Seconds(), v.Total.Seconds(), perf.OverheadFrac(b, v), nil
}

// WorkloadResult is one system's aggregated throughput on a workload set.
type WorkloadResult = rms.Result

// SimulateCluster runs a Table 1 workload set (by index, 1..10) through
// the virtualized framework on the paper's cluster and returns the
// aggregated result alongside the AS ISA-only baseline.
func SimulateCluster(setIndex, numTasks int, seed int64) (proposed, baseline WorkloadResult, err error) {
	comps := workload.Table1()
	if setIndex < 1 || setIndex > len(comps) {
		return proposed, baseline, fmt.Errorf("mlvfpga: workload set %d out of range [1,%d]", setIndex, len(comps))
	}
	opt := experiments.DefaultFig12Options()
	tasks, err := workload.Generate(comps[setIndex-1], workload.Options{
		NumTasks:         numTasks,
		MeanInterarrival: opt.MeanInterarrival,
		Seed:             seed,
	})
	if err != nil {
		return proposed, baseline, err
	}
	baseline, virt, err := experiments.Systems(tasks, rms.Flexible)
	if err != nil {
		return proposed, baseline, err
	}
	return virt[0], baseline, nil
}

// Reproduction entry points: one per paper table/figure. See
// internal/experiments for the row types and EXPERIMENTS.md for recorded
// paper-vs-measured results.
var (
	ReproduceTable2            = experiments.Table2
	ReproduceTable3            = experiments.Table3
	ReproduceTable4            = experiments.Table4
	ReproduceFig11             = experiments.Fig11
	ReproduceFig12             = experiments.Fig12
	ReproduceCompileOverhead   = func() (*experiments.CompileOverheadResult, error) { return experiments.CompileOverhead(nil) }
	ReproduceInstructionBuffer = experiments.InstructionBufferFit
	ReproduceAblationPartition = experiments.AblationPartition
	ReproduceAblationNumerics  = experiments.AblationNumerics
	ReproduceAblationPolicy    = experiments.AblationPolicy
	ReproduceLoadSweep         = experiments.LoadSweep
	DefaultFig12Options        = experiments.DefaultFig12Options
)
