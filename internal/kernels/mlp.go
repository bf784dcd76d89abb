package kernels

import (
	"fmt"
	"math"
	"math/rand"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/isa"
)

// This file adds a feed-forward (MLP) kernel alongside the recurrent
// cells: the AS ISA is application-specific, not model-specific, and the
// same instruction set expresses y = act(W_n ... act(W_1 x)) chains. The
// paper's BrainWave reference serves MLP/CNN-style layers with the same
// ISA; this generator demonstrates that generality.

// Activation selects the per-layer nonlinearity of an MLP.
type Activation int

// Supported activations.
const (
	ReLU Activation = iota
	SigmoidAct
	TanhAct
	NoAct
)

func (a Activation) String() string {
	switch a {
	case ReLU:
		return "relu"
	case SigmoidAct:
		return "sigmoid"
	case TanhAct:
		return "tanh"
	case NoAct:
		return "linear"
	}
	return fmt.Sprintf("Activation(%d)", int(a))
}

func (a Activation) opcode() (isa.Opcode, bool) {
	switch a {
	case ReLU:
		return isa.OpVRelu, true
	case SigmoidAct:
		return isa.OpVSigm, true
	case TanhAct:
		return isa.OpVTanh, true
	}
	return 0, false
}

// MLPSpec describes a multi-layer perceptron with square layers (the
// accelerator's logical vector length is fixed per chain, so every layer
// is Dim x Dim).
type MLPSpec struct {
	// Dim is the width of every layer.
	Dim int
	// Layers is the number of weight matrices.
	Layers int
	// Act is applied after every layer except the last.
	Act Activation
}

// MLPWeights holds the per-layer parameters.
type MLPWeights struct {
	Spec MLPSpec
	// W[i] is layer i's Dim x Dim matrix, row-major; B[i] its bias.
	W [][]float64
	B [][]float64
}

// RandomMLPWeights draws N(0, 1/sqrt(dim)) weights.
func RandomMLPWeights(spec MLPSpec, seed int64) (*MLPWeights, error) {
	if spec.Dim <= 0 || spec.Layers <= 0 {
		return nil, fmt.Errorf("kernels: bad MLP spec %+v", spec)
	}
	r := rand.New(rand.NewSource(seed))
	w := &MLPWeights{Spec: spec}
	scale := 1.0 / math.Sqrt(float64(spec.Dim))
	for l := 0; l < spec.Layers; l++ {
		w.W = append(w.W, normals(r, spec.Dim*spec.Dim, scale))
		w.B = append(w.B, normals(r, spec.Dim, 0.1))
	}
	return w, nil
}

// MLPKernel is a compiled feed-forward chain.
type MLPKernel struct {
	Spec MLPSpec
	Prog isa.Program
	// Image is the initial DRAM contents.
	Image []fp16.Num
	// Cfg sizes the machine.
	Cfg       accel.Config
	inputAddr int
	outAddr   int
}

// BuildMLP compiles the chain: load all matrices and biases, then per
// inference one v_rd, Layers x (mv_mul, vv_add, activation), one v_wr.
// Matrix registers bound the depth (Layers <= MRegs, biases need
// Layers + 2 vector registers).
func BuildMLP(w *MLPWeights, tiles int) (*MLPKernel, error) {
	spec := w.Spec
	cfg := DefaultConfig(LayerSpec{Kind: LSTM, Hidden: spec.Dim, TimeSteps: 1}, tiles)
	if spec.Layers > cfg.MRegs {
		return nil, fmt.Errorf("kernels: %d layers exceed %d matrix registers", spec.Layers, cfg.MRegs)
	}
	if spec.Layers+3 > cfg.VRegs {
		return nil, fmt.Errorf("kernels: %d layers exceed the vector register file", spec.Layers)
	}
	k := &MLPKernel{Spec: spec, Cfg: cfg}

	// DRAM: each layer's matrix then bias (the image), the input, the output.
	k.inputAddr = spec.Layers * (spec.Dim*spec.Dim + spec.Dim)
	k.outAddr = k.inputAddr + spec.Dim
	k.Image = make([]fp16.Num, k.inputAddr)
	var alloc allocator
	var p isa.Program
	for l := 0; l < spec.Layers; l++ {
		mat, bias := alloc.alloc(spec.Dim*spec.Dim), alloc.alloc(spec.Dim)
		fp16.FromSlice64Into(k.Image[mat:], w.W[l])
		fp16.FromSlice64Into(k.Image[bias:], w.B[l])
		p = append(p,
			isa.Instr{Op: isa.OpMRead, Dst: uint8(l), Imm: uint32(mat)},
			isa.Instr{Op: isa.OpVRead, Dst: uint8(2 + l), Imm: uint32(bias)},
		)
	}
	p = append(p, isa.Instr{Op: isa.OpVRead, Dst: 0, Imm: uint32(k.inputAddr)})
	for l := 0; l < spec.Layers; l++ {
		p = append(p,
			isa.Instr{Op: isa.OpMVMul, Dst: 1, Src1: uint8(l), Src2: 0},
			isa.Instr{Op: isa.OpVVAdd, Dst: 1, Src1: 1, Src2: uint8(2 + l)},
		)
		if op, ok := spec.Act.opcode(); ok && l < spec.Layers-1 {
			p = append(p, isa.Instr{Op: op, Dst: 1, Src1: 1})
		}
		if l < spec.Layers-1 {
			p = append(p, isa.Instr{Op: isa.OpVPass, Dst: 0, Src1: 1})
		}
	}
	p = append(p,
		isa.Instr{Op: isa.OpVWrite, Src1: 1, Imm: uint32(k.outAddr)},
		isa.Instr{Op: isa.OpEndChain},
	)
	k.Prog = p
	return k, nil
}
