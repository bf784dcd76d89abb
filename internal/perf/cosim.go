package perf

import (
	"fmt"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/hsvital"
	"mlvfpga/internal/isa"
	"mlvfpga/internal/kernels"
)

// FromStats derives an inference latency from the functional simulator's
// execution statistics instead of the analytic per-step formula: every
// executed instruction pays its issue slot, the measured MACs flow through
// the tile engines, and the measured element operations through the MFUs.
//
// This is the co-simulation path: running a kernel on internal/accel and
// feeding its ExecStats here must agree with the analytic Baseline for the
// same layer (the suite asserts a few-percent match), which ties the
// timing model to what the programs actually execute rather than to
// hand-counted instruction totals.
func FromStats(st accel.ExecStats, inst Instance, p Params) (Breakdown, error) {
	issuePer, ok := p.IssueCyclesPerInstr[inst.Device]
	if !ok {
		return Breakdown{}, fmt.Errorf("perf: no issue calibration for device %q", inst.Device)
	}
	issue := issuePer * float64(st.Instructions)

	macsPerCycle := float64(inst.Tiles) * hsvital.TileMACsPerCycle
	nMVM := float64(st.ByOp[isa.OpMVMul])
	mvm := float64(st.MACs)/macsPerCycle + nMVM*p.MVMFillCycles

	lanes := float64(inst.Tiles) * p.VecLanesPerTile
	nVec := 0.0
	for op, count := range st.ByOp {
		switch isa.Opcode(op) {
		case isa.OpVVAdd, isa.OpVVSub, isa.OpVVMul,
			isa.OpVSigm, isa.OpVTanh, isa.OpVRelu, isa.OpVPass,
			isa.OpVConst, isa.OpVRsub, isa.OpVExp, isa.OpVRecip:
			nVec += float64(count)
		}
	}
	vec := float64(st.VectorOps)/lanes + nVec*p.VecFillCycles

	cycles := issue + mvm + vec
	total := p.InvokeOverhead + cyclesToTime(cycles, inst.ClockMHz)
	return Breakdown{
		Instance:    inst,
		IssueCycles: issue,
		MVMCycles:   mvm,
		VecCycles:   vec,
		StepTime:    cyclesToTime(cycles, inst.ClockMHz),
		Invoke:      p.InvokeOverhead,
		Total:       total,
	}, nil
}

// Cosim builds a kernel for the layer, executes it functionally on the AS
// ISA simulator with zero inputs, and returns both the stats-derived and
// the analytic latencies for comparison.
func Cosim(spec kernels.LayerSpec, inst Instance, p Params, seed int64) (fromStats, analytic Breakdown, err error) {
	k, err := kernels.BuildRandom(spec, inst.Tiles, seed)
	if err != nil {
		return Breakdown{}, Breakdown{}, err
	}
	// Functional execution only measures instruction/op counts; a narrow
	// mantissa is fine and fast.
	m, err := k.NewMachine()
	if err != nil {
		return Breakdown{}, Breakdown{}, err
	}
	if err := m.Run(k.Prog); err != nil {
		return Breakdown{}, Breakdown{}, err
	}
	fromStats, err = FromStats(m.Stats(), inst, p)
	if err != nil {
		return Breakdown{}, Breakdown{}, err
	}
	analytic = Baseline(spec, inst, p)
	return fromStats, analytic, nil
}
