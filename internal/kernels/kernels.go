// Package kernels generates AS ISA programs for the GRU/LSTM inference
// tasks the paper evaluates (DeepBench layers, §4.1), together with
// float64 reference implementations used to validate the accelerator
// simulator's numerics.
package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/isa"
)

// RNNKind selects the recurrent cell.
type RNNKind int

// Supported cells.
const (
	LSTM RNNKind = iota
	GRU
	// Attention is a recurrent attention cell (AFT-style): instead of
	// materializing a softmax over the whole history — which the AS ISA
	// cannot express (no cross-lane reduction) — the cell keeps a running
	// key-weighted value sum S_t and normalizer z_t:
	//
	//	S_t = S_{t-1} + exp(k_t) ⊙ v_t
	//	z_t = z_{t-1} + exp(k_t)
	//	y_t = σ(q_t) ⊙ (S_t ⊙ recip(z_t)), then h_t = Wo·y_t + bo
	//
	// with q/k/v = W{q,k,v}·x_t + b{q,k,v}. The state (S, z) is two vector
	// registers, so the cell steps under the same banked Step program,
	// snapshot/restore and scale-out machinery as LSTM/GRU.
	Attention
)

func (k RNNKind) String() string {
	switch k {
	case LSTM:
		return "LSTM"
	case GRU:
		return "GRU"
	case Attention:
		return "Attention"
	}
	return fmt.Sprintf("RNNKind(%d)", int(k))
}

// ParseKind is String's inverse, ignoring case: the one table of cell
// names for everything that reads a kind from outside (the /deploy body,
// the .mlw workload DSL).
func ParseKind(name string) (RNNKind, bool) {
	for _, k := range []RNNKind{LSTM, GRU, Attention} {
		if strings.EqualFold(name, k.String()) {
			return k, true
		}
	}
	return 0, false
}

// GateNames lists the weight matrices of each cell: W* act on the input
// x_t, U* act on the recurrent state h_{t-1}.
func (k RNNKind) GateNames() (wx, uh, bias []string) {
	switch k {
	case LSTM:
		return []string{"Wi", "Wf", "Wo", "Wc"},
			[]string{"Ui", "Uf", "Uo", "Uc"},
			[]string{"bi", "bf", "bo", "bc"}
	case GRU:
		return []string{"Wz", "Wr", "Wn"},
			[]string{"Uz", "Ur", "Un"},
			[]string{"bz", "br", "bn"}
	case Attention:
		// All four projections act on the step input (the recurrence runs
		// through the (S, z) accumulators, not through matrices on h).
		return []string{"Wq", "Wk", "Wv", "Wo"},
			nil,
			[]string{"bq", "bk", "bv", "bo"}
	}
	return nil, nil, nil
}

// LayerSpec is one benchmark layer: the paper reports latency per
// (cell, hidden size, timesteps) configuration (Table 4).
type LayerSpec struct {
	Kind      RNNKind
	Hidden    int
	TimeSteps int
}

func (s LayerSpec) String() string {
	return fmt.Sprintf("%s h=%d t=%d", s.Kind, s.Hidden, s.TimeSteps)
}

// DeepBenchSuite returns the seven Table 4 benchmark layers.
func DeepBenchSuite() []LayerSpec {
	return []LayerSpec{
		{GRU, 512, 1},
		{GRU, 1024, 1500},
		{GRU, 1536, 375},
		{LSTM, 256, 150},
		{LSTM, 512, 25},
		{LSTM, 1024, 25},
		{LSTM, 1536, 50},
	}
}

// Weights holds a cell's parameters in float64 (row-major h x h matrices;
// the DeepBench layers use input dimension equal to the hidden dimension).
type Weights struct {
	Kind   RNNKind
	Hidden int
	M      map[string][]float64 // matrices, h*h
	B      map[string][]float64 // biases, h
}

// RandomWeights draws parameters from N(0, 1/sqrt(h)), keeping activations
// in the well-conditioned range for BFP quantization.
func RandomWeights(kind RNNKind, hidden int, seed int64) *Weights {
	r := rand.New(rand.NewSource(seed))
	w := &Weights{Kind: kind, Hidden: hidden, M: map[string][]float64{}, B: map[string][]float64{}}
	wx, uh, bias := kind.GateNames()
	scale := 1.0 / sqrtf(float64(hidden))
	for _, name := range append(append([]string{}, wx...), uh...) {
		m := make([]float64, hidden*hidden)
		for i := range m {
			m[i] = r.NormFloat64() * scale
		}
		w.M[name] = m
	}
	for _, name := range bias {
		b := make([]float64, hidden)
		for i := range b {
			b[i] = r.NormFloat64() * 0.1
		}
		w.B[name] = b
	}
	return w
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Sqrt(x)
}

// Kernel is a compiled inference task: the program, the initial DRAM
// image, and the address map.
type Kernel struct {
	Spec LayerSpec
	Prog isa.Program
	// Step-program decomposition for continuous batching. The monolithic
	// Prog keeps every m_rd in its prologue (weights stay resident across
	// the whole run) and advances both banked addresses by exactly Hidden
	// words per timestep, so it factors into three programs that slot-
	// granular admission can replay piecewise:
	//
	//   SharedInit — the m_rd tile loads. Matrix registers are machine
	//     state, so this runs once per machine (re-running it is an
	//     idempotent tile-cache hit).
	//   StreamInit — bias v_rd loads plus state zeroing for one slot.
	//     Runs once when a stream is admitted into a slot.
	//   Step — one timestep at the t=0 addresses. A slot at timestep τ
	//     executes it under banking offset SlotOffset(slot, τ); the two
	//     banked accesses (x_t load, h_t store) land exactly where the
	//     monolithic program's timestep τ would put them.
	//
	// Because every per-stream quantity (vector registers, banked DRAM
	// window) is private to the slot and mv_mul computes each stream's
	// product independently, a stream's results are bit-identical to the
	// monolithic Prog no matter which cohort it shares step rounds with.
	SharedInit isa.Program
	StreamInit isa.Program
	Step       isa.Program
	// Image is the initial DRAM contents (weights, biases; inputs are
	// written by SetInput before running).
	Image []fp16.Num
	// Cfg is the machine configuration the program assumes.
	Cfg accel.Config
	// inputBase/outputBase locate per-timestep vectors.
	inputBase, outputBase int
}

// InputAddr returns the DRAM word address of x_t.
func (k *Kernel) InputAddr(t int) int { return k.inputBase + t*k.Spec.Hidden }

// OutputAddr returns the DRAM word address where h_t is stored.
func (k *Kernel) OutputAddr(t int) int { return k.outputBase + t*k.Spec.Hidden }

// NewMachine builds a machine loaded with the kernel's DRAM image and
// matrix shapes.
func (k *Kernel) NewMachine() (*accel.Machine, error) {
	return k.newMachine(k.Cfg)
}

// NewBatchMachine builds a machine sized for RunStreams over up to batch
// input streams. The DRAM is right-sized to the shared image plus the
// banked per-stream windows instead of the full default board, so a
// serving pool of batch machines stays cheap.
func (k *Kernel) NewBatchMachine(batch int) (*accel.Machine, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("kernels: batch = %d", batch)
	}
	cfg := k.Cfg
	need := k.inputBase + batch*k.StreamStride()
	if need > cfg.DRAMWords {
		return nil, fmt.Errorf("kernels: batch %d needs %d DRAM words, board has %d", batch, need, cfg.DRAMWords)
	}
	cfg.DRAMWords = need
	return k.newMachine(cfg)
}

func (k *Kernel) newMachine(cfg accel.Config) (*accel.Machine, error) {
	// The kernel's machines share its image (see imageDRAM).
	dram, err := newImageDRAM(k.Image, cfg.DRAMWords)
	if err != nil {
		return nil, err
	}
	m, err := accel.NewWithDRAM(cfg, dram)
	if err != nil {
		return nil, err
	}
	wx, uh, _ := k.Spec.Kind.GateNames()
	h := k.Spec.Hidden
	for i := range append(append([]string{}, wx...), uh...) {
		if err := m.ConfigureMatrix(i, h, h); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// WindowBase is the banking base address for RunStreams:
// addresses below it (weights, biases) are shared by every stream,
// addresses at or above it are banked per slot.
func (k *Kernel) WindowBase() int { return k.inputBase }

// SlotOffset returns the banking offset under which the Step program
// advances slot's timestep step: the slot's window plus step input/output
// vectors. Both banked addresses in Step (x_0 load, h_0 store) shift by
// the same offset, landing on StreamInputAddr(slot, step) and
// StreamOutputAddr(slot, step).
func (k *Kernel) SlotOffset(slot, step int) int {
	return slot*k.StreamStride() + step*k.Spec.Hidden
}

// StreamStride is the DRAM footprint of one stream's banked window: the
// per-timestep input block followed by the per-timestep output block
// (contiguous in the kernel layout).
func (k *Kernel) StreamStride() int { return 2 * k.Spec.Hidden * k.Spec.TimeSteps }

// StreamInputAddr returns the DRAM word address of stream s's x_t.
func (k *Kernel) StreamInputAddr(s, t int) int { return k.InputAddr(t) + s*k.StreamStride() }

// StreamOutputAddr returns the DRAM word address of stream s's h_t.
func (k *Kernel) StreamOutputAddr(s, t int) int { return k.OutputAddr(t) + s*k.StreamStride() }

// SetInput writes x_t into the machine's DRAM.
func (k *Kernel) SetInput(m *accel.Machine, t int, x []float64) error {
	return k.SetInputStream(m, 0, t, x)
}

// SetInputStream writes stream s's x_t into the machine's DRAM.
func (k *Kernel) SetInputStream(m *accel.Machine, s, t int, x []float64) error {
	if len(x) != k.Spec.Hidden {
		return fmt.Errorf("kernels: input length %d, want %d", len(x), k.Spec.Hidden)
	}
	return m.DRAMPort().WriteWords(k.StreamInputAddr(s, t), fp16.FromSlice64(x))
}

// ReadOutput reads h_t back from DRAM.
func (k *Kernel) ReadOutput(m *accel.Machine, t int) ([]float64, error) {
	return k.ReadOutputStream(m, 0, t)
}

// ReadOutputStream reads stream s's h_t back from DRAM.
func (k *Kernel) ReadOutputStream(m *accel.Machine, s, t int) ([]float64, error) {
	words, err := m.DRAMPort().ReadWords(k.StreamOutputAddr(s, t), k.Spec.Hidden)
	if err != nil {
		return nil, err
	}
	return fp16.ToSlice64(words), nil
}

// allocator hands out DRAM addresses sequentially.
type allocator struct{ next int }

func (a *allocator) alloc(words int) int {
	addr := a.next
	a.next += words
	return addr
}

// InstrBufBytes is the on-chip instruction buffer capacity: 4 Mb of BRAM
// in the control block (§3), enough to hold the entire machine code of
// every Table 4 layer and thereby avoid DRAM contention (§4.4).
const InstrBufBytes = 512 << 10

// DefaultConfig sizes a machine for a layer: native dimension 128 (the
// BrainWave tile granularity), 16 vector and 8 matrix registers, and the
// on-chip instruction buffer of §3.
func DefaultConfig(spec LayerSpec, tiles int) accel.Config {
	return accel.Config{
		Name:          fmt.Sprintf("bw_%s_h%d_t%d", spec.Kind, spec.Hidden, tiles),
		NativeDim:     128,
		NumTiles:      tiles,
		VRegs:         16,
		MRegs:         8,
		VecLen:        spec.Hidden,
		DRAMWords:     64 << 20, // 64M half words = 128 MiB
		InstrBufBytes: InstrBufBytes,
	}
}

// Build compiles a layer into a kernel: weights and biases are laid out in
// DRAM, the per-timestep instruction sequence is generated, and the
// program is terminated with end_chain.
func Build(w *Weights, timeSteps, tiles int) (*Kernel, error) {
	if timeSteps <= 0 {
		return nil, fmt.Errorf("kernels: timeSteps = %d", timeSteps)
	}
	switch w.Kind {
	case LSTM, GRU, Attention:
	default:
		return nil, fmt.Errorf("kernels: unknown cell %v", w.Kind)
	}
	spec := LayerSpec{Kind: w.Kind, Hidden: w.Hidden, TimeSteps: timeSteps}
	cfg := DefaultConfig(spec, tiles)
	k := &Kernel{Spec: spec, Cfg: cfg}
	h := w.Hidden

	var alloc allocator
	wx, uh, bias := w.Kind.GateNames()
	matAddr := map[string]int{}
	for _, name := range append(append([]string{}, wx...), uh...) {
		matAddr[name] = alloc.alloc(h * h)
	}
	biasAddr := map[string]int{}
	for _, name := range bias {
		biasAddr[name] = alloc.alloc(h)
	}
	k.inputBase = alloc.alloc(h * timeSteps)
	k.outputBase = alloc.alloc(h * timeSteps)
	if alloc.next > cfg.DRAMWords {
		return nil, fmt.Errorf("kernels: layer needs %d DRAM words, have %d", alloc.next, cfg.DRAMWords)
	}

	// DRAM image: weights then biases (inputs/outputs zero).
	k.Image = make([]fp16.Num, k.inputBase)
	place := func(addr int, vals []float64) {
		copy(k.Image[addr:], fp16.FromSlice64(vals))
	}
	for name, addr := range matAddr {
		place(addr, w.M[name])
	}
	for name, addr := range biasAddr {
		place(addr, w.B[name])
	}

	// Prologue: load matrices (m0..), biases (r3..), zero the state.
	var p isa.Program
	var shared, sinit, step isa.Program
	for i, name := range append(append([]string{}, wx...), uh...) {
		ins := isa.Instr{Op: isa.OpMRead, Dst: uint8(i), Imm: uint32(matAddr[name])}
		p = append(p, ins)
		shared = append(shared, ins)
	}
	for i, name := range bias {
		ins := isa.Instr{Op: isa.OpVRead, Dst: uint8(3 + i), Imm: uint32(biasAddr[name])}
		p = append(p, ins)
		sinit = append(sinit, ins)
	}
	zero := isa.Instr{Op: isa.OpVConst, Dst: 1, Imm: 0} // h = 0
	p = append(p, zero)
	sinit = append(sinit, zero)
	switch w.Kind {
	case LSTM:
		zc := isa.Instr{Op: isa.OpVConst, Dst: 2, Imm: 0} // c = 0
		p = append(p, zc)
		sinit = append(sinit, zc)
	case Attention:
		for _, dst := range []uint8{2, 15} { // S = 0, z = 0
			zs := isa.Instr{Op: isa.OpVConst, Dst: dst, Imm: 0}
			p = append(p, zs)
			sinit = append(sinit, zs)
		}
	}

	cell := func() isa.Program {
		switch w.Kind {
		case LSTM:
			return lstmStep()
		case Attention:
			return attnStep()
		}
		return gruStep()
	}
	for t := 0; t < timeSteps; t++ {
		p = append(p, isa.Instr{Op: isa.OpVRead, Dst: 0, Imm: uint32(k.InputAddr(t))})
		p = append(p, cell()...)
		p = append(p, isa.Instr{Op: isa.OpVWrite, Src1: 1, Imm: uint32(k.OutputAddr(t))})
	}
	p = append(p, isa.Instr{Op: isa.OpEndChain})
	k.Prog = p

	// The step program is timestep 0's slice; SlotOffset banks it onto any
	// (slot, timestep) pair.
	step = append(step, isa.Instr{Op: isa.OpVRead, Dst: 0, Imm: uint32(k.InputAddr(0))})
	step = append(step, cell()...)
	step = append(step, isa.Instr{Op: isa.OpVWrite, Src1: 1, Imm: uint32(k.OutputAddr(0))})
	k.SharedInit = append(shared, isa.Instr{Op: isa.OpEndChain})
	k.StreamInit = append(sinit, isa.Instr{Op: isa.OpEndChain})
	k.Step = append(step, isa.Instr{Op: isa.OpEndChain})
	return k, nil
}

// lstmStep emits one LSTM timestep. Register convention:
// r0=x_t r1=h r2=c r3..r6=bi,bf,bo,bc; m0..m3=Wi,Wf,Wo,Wc; m4..m7=Ui..Uc.
func lstmStep() isa.Program {
	I := func(op isa.Opcode, d, s1, s2 uint8) isa.Instr {
		return isa.Instr{Op: op, Dst: d, Src1: s1, Src2: s2}
	}
	return isa.Program{
		I(isa.OpMVMul, 7, 0, 0), // Wi x
		I(isa.OpMVMul, 8, 4, 1), // Ui h
		I(isa.OpVVAdd, 7, 7, 8),
		I(isa.OpVVAdd, 7, 7, 3),
		I(isa.OpVSigm, 7, 7, 0), // i
		I(isa.OpMVMul, 8, 1, 0), // Wf x
		I(isa.OpMVMul, 9, 5, 1), // Uf h
		I(isa.OpVVAdd, 8, 8, 9),
		I(isa.OpVVAdd, 8, 8, 4),
		I(isa.OpVSigm, 8, 8, 0),  // f
		I(isa.OpMVMul, 9, 2, 0),  // Wo x
		I(isa.OpMVMul, 10, 6, 1), // Uo h
		I(isa.OpVVAdd, 9, 9, 10),
		I(isa.OpVVAdd, 9, 9, 5),
		I(isa.OpVSigm, 9, 9, 0),  // o
		I(isa.OpMVMul, 10, 3, 0), // Wc x
		I(isa.OpMVMul, 11, 7, 1), // Uc h
		I(isa.OpVVAdd, 10, 10, 11),
		I(isa.OpVVAdd, 10, 10, 6),
		I(isa.OpVTanh, 10, 10, 0), // g
		I(isa.OpVVMul, 11, 8, 2),  // f*c
		I(isa.OpVVMul, 12, 7, 10), // i*g
		I(isa.OpVVAdd, 2, 11, 12), // c'
		I(isa.OpVTanh, 13, 2, 0),  // tanh(c')
		I(isa.OpVVMul, 1, 9, 13),  // h' = o * tanh(c')
	}
}

// gruStep emits one GRU timestep. Register convention:
// r0=x_t r1=h r3..r5=bz,br,bn; m0..m2=Wz,Wr,Wn; m3..m5=Uz,Ur,Un.
func gruStep() isa.Program {
	const one = 0x3C00 // float16 1.0
	I := func(op isa.Opcode, d, s1, s2 uint8) isa.Instr {
		return isa.Instr{Op: op, Dst: d, Src1: s1, Src2: s2}
	}
	return isa.Program{
		I(isa.OpMVMul, 7, 0, 0), // Wz x
		I(isa.OpMVMul, 8, 3, 1), // Uz h
		I(isa.OpVVAdd, 7, 7, 8),
		I(isa.OpVVAdd, 7, 7, 3),
		I(isa.OpVSigm, 7, 7, 0), // z
		I(isa.OpMVMul, 8, 1, 0), // Wr x
		I(isa.OpMVMul, 9, 4, 1), // Ur h
		I(isa.OpVVAdd, 8, 8, 9),
		I(isa.OpVVAdd, 8, 8, 4),
		I(isa.OpVSigm, 8, 8, 0),  // r
		I(isa.OpMVMul, 9, 5, 1),  // Un h
		I(isa.OpVVMul, 9, 8, 9),  // r ⊙ (Un h)
		I(isa.OpMVMul, 10, 2, 0), // Wn x
		I(isa.OpVVAdd, 9, 9, 10),
		I(isa.OpVVAdd, 9, 9, 5),
		I(isa.OpVTanh, 9, 9, 0),                       // n
		{Op: isa.OpVRsub, Dst: 10, Src1: 7, Imm: one}, // 1-z
		I(isa.OpVVMul, 10, 10, 9),                     // (1-z) n
		I(isa.OpVVMul, 11, 7, 1),                      // z h
		I(isa.OpVVAdd, 1, 10, 11),                     // h'
	}
}

// attnStep emits one recurrent-attention timestep. Register convention:
// r0=x_t r1=h r2=S r15=z r3..r6=bq,bk,bv,bo; m0..m3=Wq,Wk,Wv,Wo.
func attnStep() isa.Program {
	I := func(op isa.Opcode, d, s1, s2 uint8) isa.Instr {
		return isa.Instr{Op: op, Dst: d, Src1: s1, Src2: s2}
	}
	return isa.Program{
		I(isa.OpMVMul, 7, 0, 0), // Wq x
		I(isa.OpVVAdd, 7, 7, 3), // q
		I(isa.OpMVMul, 8, 1, 0), // Wk x
		I(isa.OpVVAdd, 8, 8, 4), // k
		I(isa.OpMVMul, 9, 2, 0), // Wv x
		I(isa.OpVVAdd, 9, 9, 5), // v
		I(isa.OpVExp, 8, 8, 0),  // e = exp(k)
		I(isa.OpVVMul, 10, 8, 9),
		I(isa.OpVVAdd, 2, 2, 10),  // S += e ⊙ v
		I(isa.OpVVAdd, 15, 15, 8), // z += e
		I(isa.OpVSigm, 7, 7, 0),   // σ(q)
		I(isa.OpVRecip, 10, 15, 0),
		I(isa.OpVVMul, 10, 2, 10), // S / z
		I(isa.OpVVMul, 10, 7, 10), // y = σ(q) ⊙ (S/z)
		I(isa.OpMVMul, 11, 3, 10), // Wo y
		I(isa.OpVVAdd, 1, 11, 6),  // h' = Wo y + bo
	}
}

// StepInstructions returns the number of instructions one timestep costs
// (including the x_t load and h_t store), used by the timing model.
func StepInstructions(kind RNNKind) int {
	switch kind {
	case LSTM:
		return len(lstmStep()) + 2
	case GRU:
		return len(gruStep()) + 2
	case Attention:
		return len(attnStep()) + 2
	}
	return 0
}

// MVMsPerStep returns how many h x h matrix-vector products one timestep
// performs.
func MVMsPerStep(kind RNNKind) int {
	switch kind {
	case LSTM:
		return 8
	case Attention:
		return 4
	}
	return 6
}
