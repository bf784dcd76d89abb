package kernels

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mlvfpga/internal/isa"
)

func TestDeepBenchSuite(t *testing.T) {
	suite := DeepBenchSuite()
	if len(suite) != 7 {
		t.Fatalf("suite size = %d, want 7 (Table 4)", len(suite))
	}
	gru, lstm := 0, 0
	for _, s := range suite {
		if s.Kind == GRU {
			gru++
		} else {
			lstm++
		}
		if s.Hidden <= 0 || s.TimeSteps <= 0 {
			t.Errorf("bad spec %v", s)
		}
	}
	if gru != 3 || lstm != 4 {
		t.Errorf("composition = %d GRU + %d LSTM, want 3+4", gru, lstm)
	}
}

func TestRandomWeightsShape(t *testing.T) {
	w := RandomWeights(LSTM, 64, 1)
	if len(w.M) != 8 || len(w.B) != 4 {
		t.Errorf("LSTM has %d matrices, %d biases", len(w.M), len(w.B))
	}
	for name, m := range w.M {
		if len(m) != 64*64 {
			t.Errorf("%s size = %d", name, len(m))
		}
	}
	g := RandomWeights(GRU, 32, 1)
	if len(g.M) != 6 || len(g.B) != 3 {
		t.Errorf("GRU has %d matrices, %d biases", len(g.M), len(g.B))
	}
	// Determinism.
	w2 := RandomWeights(LSTM, 64, 1)
	if w.M["Wi"][0] != w2.M["Wi"][0] {
		t.Error("same seed must give same weights")
	}
	w3 := RandomWeights(LSTM, 64, 2)
	if w.M["Wi"][0] == w3.M["Wi"][0] {
		t.Error("different seeds must differ")
	}
}

// TestBuildRandomMatchesBuild: drawing straight into the binary16 image
// builds, word for word, the kernel Build makes from RandomWeights: image,
// programs (Prog, SharedInit, StreamInit, Step), Cfg and address map.
func TestBuildRandomMatchesBuild(t *testing.T) {
	for kind := range cells {
		for _, hidden := range []int{8, 32, 64, 256} {
			for seed := int64(1); seed <= 3; seed++ {
				spec := LayerSpec{Kind: RNNKind(kind), Hidden: hidden, TimeSteps: 3}
				want, err := Build(RandomWeights(spec.Kind, hidden, seed), spec.TimeSteps, 2)
				if err != nil {
					t.Fatal(err)
				}
				got, err := BuildRandom(spec, 2, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v seed %d: BuildRandom differs from Build(RandomWeights)", spec, seed)
				}
			}
		}
	}
	if _, err := BuildRandom(LayerSpec{Kind: LSTM, Hidden: 8}, 2, 1); err == nil {
		t.Error("BuildRandom accepted zero timesteps")
	}
}

// runKernel executes a kernel on the simulator with random inputs and
// compares every timestep against the float64 reference.
func runKernel(t *testing.T, kind RNNKind, hidden, steps int, tolerance float64) {
	t.Helper()
	w := RandomWeights(kind, hidden, 42)
	k, err := Build(w, steps, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Use a wide BFP mantissa so quantization noise stays below tolerance.
	k.Cfg.MantissaBits = 9
	m, err := k.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	ref := NewReference(w)
	inputs := make([][]float64, steps)
	for tt := 0; tt < steps; tt++ {
		x := make([]float64, hidden)
		for i := range x {
			x[i] = r.NormFloat64() * 0.5
		}
		inputs[tt] = x
		if err := k.SetInput(m, tt, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(k.Prog); err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < steps; tt++ {
		want, err := ref.Step(inputs[tt])
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.ReadOutput(m, tt)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > worst {
				worst = d
			}
		}
		if worst > tolerance {
			t.Fatalf("%v step %d: max error %.4f > %.4f", kind, tt, worst, tolerance)
		}
	}
}

func TestLSTMMatchesReference(t *testing.T) {
	runKernel(t, LSTM, 48, 4, 0.08)
}

func TestGRUMatchesReference(t *testing.T) {
	runKernel(t, GRU, 48, 4, 0.08)
}

func TestLSTMLongerSequenceStaysBounded(t *testing.T) {
	// Error must not blow up over more steps (states are re-quantized each
	// step but activations are saturating).
	runKernel(t, LSTM, 32, 12, 0.15)
}

func TestBuildProgramShape(t *testing.T) {
	w := RandomWeights(GRU, 32, 1)
	k, err := Build(w, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Prologue: 6 m_rd + 3 v_rd + 1 v_const. Per step: v_rd + 20 + v_wr.
	wantLen := 10 + 3*StepInstructions(GRU) + 1
	if len(k.Prog) != wantLen {
		t.Errorf("program length = %d, want %d", len(k.Prog), wantLen)
	}
	if k.Prog[len(k.Prog)-1].Op != isa.OpEndChain {
		t.Error("program must end with end_chain")
	}
	// Addresses must not overlap.
	if k.InputAddr(0) >= k.OutputAddr(0) && k.OutputAddr(0) >= k.InputAddr(0)+32*3 {
		t.Error("input/output regions overlap")
	}
}

func TestBuildErrors(t *testing.T) {
	w := RandomWeights(GRU, 32, 1)
	if _, err := Build(w, 0, 1); err == nil {
		t.Error("zero timesteps must fail")
	}
}

func TestStepInstructionCounts(t *testing.T) {
	if StepInstructions(LSTM) != 27 {
		t.Errorf("LSTM step = %d instrs", StepInstructions(LSTM))
	}
	if StepInstructions(GRU) != 22 {
		t.Errorf("GRU step = %d instrs", StepInstructions(GRU))
	}
	if StepInstructions(Attention) != 18 {
		t.Errorf("Attention step = %d instrs", StepInstructions(Attention))
	}
	if MVMsPerStep(LSTM) != 8 || MVMsPerStep(GRU) != 6 || MVMsPerStep(Attention) != 4 {
		t.Error("MVM counts wrong")
	}
}

// Instruction-buffer fit (§4.4): the entire machine code of every Table 4
// layer must fit the 32 KiB on-chip buffer... except that long sequences
// replay the per-step block; verify at least that per-step code plus
// prologue fits comfortably.
func TestInstructionFootprint(t *testing.T) {
	for _, spec := range DeepBenchSuite() {
		perStep := StepInstructions(spec.Kind) * isa.InstrBytes
		if perStep > 1024 {
			t.Errorf("%v: per-step code %d bytes", spec, perStep)
		}
	}
}

// Every generated program must pass the ISA static validator.
func TestGeneratedProgramsValidate(t *testing.T) {
	for _, kind := range []RNNKind{LSTM, GRU, Attention} {
		w := RandomWeights(kind, 64, 3)
		k, err := Build(w, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		issues := isa.Validate(k.Prog, isa.MachineSpec{
			VRegs:         k.Cfg.VRegs,
			MRegs:         k.Cfg.MRegs,
			DRAMWords:     k.Cfg.DRAMWords,
			InstrBufBytes: k.Cfg.InstrBufBytes,
		})
		if len(issues) != 0 {
			t.Errorf("%v program has %d static issues; first: %v", kind, len(issues), issues[0])
		}
	}
}
