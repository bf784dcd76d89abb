package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/isa"
)

func runMLP(t *testing.T, spec MLPSpec, tolerance float64) {
	t.Helper()
	w, err := RandomMLPWeights(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	k, err := BuildMLP(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	k.Cfg.MantissaBits = 9
	m, err := k.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	x := make([]float64, spec.Dim)
	for i := range x {
		x[i] = r.NormFloat64() * 0.5
	}
	if err := k.SetInput(m, x); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(k.Prog); err != nil {
		t.Fatal(err)
	}
	got, err := k.ReadOutput(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceMLP(w, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tolerance {
			t.Fatalf("%v elem %d: got %v, want %v", spec, i, got[i], want[i])
		}
	}
}

func TestMLPReLU(t *testing.T)    { runMLP(t, MLPSpec{Dim: 48, Layers: 3, Act: ReLU}, 0.1) }
func TestMLPSigmoid(t *testing.T) { runMLP(t, MLPSpec{Dim: 32, Layers: 2, Act: SigmoidAct}, 0.08) }
func TestMLPTanh(t *testing.T)    { runMLP(t, MLPSpec{Dim: 32, Layers: 4, Act: TanhAct}, 0.12) }
func TestMLPLinear(t *testing.T)  { runMLP(t, MLPSpec{Dim: 32, Layers: 2, Act: NoAct}, 0.1) }

func TestMLPErrors(t *testing.T) {
	if _, err := RandomMLPWeights(MLPSpec{Dim: 0, Layers: 1}, 1); err == nil {
		t.Error("bad dim must fail")
	}
	w, _ := RandomMLPWeights(MLPSpec{Dim: 16, Layers: 2, Act: ReLU}, 1)
	w.Spec.Layers = 99
	if _, err := BuildMLP(w, 1); err == nil {
		t.Error("too many layers must fail")
	}
	w.Spec.Layers = 2
	k, err := BuildMLP(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := k.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetInput(m, make([]float64, 3)); err == nil {
		t.Error("wrong input length must fail")
	}
	if _, err := ReferenceMLP(w, make([]float64, 3)); err == nil {
		t.Error("wrong reference input length must fail")
	}
}

func TestMLPProgramValidates(t *testing.T) {
	w, _ := RandomMLPWeights(MLPSpec{Dim: 32, Layers: 4, Act: ReLU}, 1)
	k, err := BuildMLP(w, 1)
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
		t.Errorf("MLP program has %d static issues; first: %v", len(issues), issues[0])
	}
}

func TestActivationString(t *testing.T) {
	names := map[Activation]string{ReLU: "relu", SigmoidAct: "sigmoid", TanhAct: "tanh", NoAct: "linear"}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q", int(a), a.String())
		}
	}
}

// NewMachine builds a machine loaded with weights and matrix shapes.
func (k *MLPKernel) NewMachine() (*accel.Machine, error) {
	m, err := accel.NewWithDRAM(k.Cfg, nil)
	if err != nil {
		return nil, err
	}
	if err := m.DRAMPort().WriteWords(0, k.Image); err != nil {
		return nil, err
	}
	for l := 0; l < k.Spec.Layers; l++ {
		if err := m.ConfigureMatrix(l, k.Spec.Dim, k.Spec.Dim); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// SetInput writes x into DRAM.
func (k *MLPKernel) SetInput(m *accel.Machine, x []float64) error {
	if len(x) != k.Spec.Dim {
		return fmt.Errorf("kernels: MLP input length %d, want %d", len(x), k.Spec.Dim)
	}
	words := make([]fp16.Num, len(x))
	fp16.FromSlice64Into(words, x)
	return m.DRAMPort().WriteWords(k.inputAddr, words)
}

// ReadOutput reads y back.
func (k *MLPKernel) ReadOutput(m *accel.Machine) ([]float64, error) {
	words, err := readWords(m.DRAMPort(), k.outAddr, k.Spec.Dim)
	if err != nil {
		return nil, err
	}
	y := make([]float64, len(words))
	fp16.ToSlice64Into(y, words)
	return y, nil
}

// ReferenceMLP evaluates the chain in float64.
func ReferenceMLP(w *MLPWeights, x []float64) ([]float64, error) {
	if len(x) != w.Spec.Dim {
		return nil, fmt.Errorf("kernels: MLP input length %d, want %d", len(x), w.Spec.Dim)
	}
	dim := w.Spec.Dim
	cur := append([]float64{}, x...)
	for l := 0; l < w.Spec.Layers; l++ {
		next := make([]float64, dim)
		for i := 0; i < dim; i++ {
			sum := w.B[l][i]
			for j := 0; j < dim; j++ {
				sum += w.W[l][i*dim+j] * cur[j]
			}
			next[i] = sum
		}
		if l < w.Spec.Layers-1 {
			for i := range next {
				next[i] = applyAct(w.Spec.Act, next[i])
			}
		}
		cur = next
	}
	return cur, nil
}

func applyAct(a Activation, x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case SigmoidAct:
		return sigmoid(x)
	case TanhAct:
		return tanh64(x)
	}
	return x
}

func tanh64(x float64) float64 {
	// tanh via the sigmoid identity to avoid importing math twice here.
	return 2*sigmoid(2*x) - 1
}
