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

// cell is everything the package knows about one recurrent cell: names,
// state zeroing, the step program, its instruction and mat-vec counts and
// Reference.Step all read this one table. Adding a cell is one entry here
// plus its float64 reference.
type cell struct {
	name string
	// wx act on the step input x_t, uh on the recurrent state h_{t-1}.
	// Matrix register i holds the i-th of wx then uh, r(3+i) bias i.
	wx, uh, bias []string
	// state lists the registers besides h (HiddenReg) that carry state
	// across timesteps and start at zero, each one device's share long.
	state []uint8
	// step emits one timestep, the device's rows of h' landing in own: on
	// one device HiddenReg itself, on a scaled-down device (§2.3, where
	// HiddenReg holds the full h the sync module reassembles) shardOwn, or
	// no scaled step program when that is 0. readsOwn: the step also reads
	// own's previous value, so a shard zeroes it like state.
	step     func(own uint8) isa.Program
	shardOwn uint8
	readsOwn bool
	ref      func(*Reference, []float64) []float64
}

var cells = [...]cell{
	LSTM: {
		name: "LSTM",
		wx:   []string{"Wi", "Wf", "Wo", "Wc"},
		uh:   []string{"Ui", "Uf", "Uo", "Uc"},
		bias: []string{"bi", "bf", "bo", "bc"},
		// r2 = c.
		state: []uint8{2}, step: lstmStep, shardOwn: 14, ref: (*Reference).stepLSTM,
	},
	GRU: {
		name: "GRU",
		wx:   []string{"Wz", "Wr", "Wn"},
		uh:   []string{"Uz", "Ur", "Un"},
		bias: []string{"bz", "br", "bn"},
		// z ⊙ h uses only the device's own elements of h: r12 carries them.
		step: gruStep, shardOwn: 12, readsOwn: true, ref: (*Reference).stepGRU,
	},
	Attention: {
		name: "Attention",
		// All four projections act on the step input (the recurrence runs
		// through the (S, z) accumulators, not through matrices on h).
		wx:   []string{"Wq", "Wk", "Wv", "Wo"},
		bias: []string{"bq", "bk", "bv", "bo"},
		// r2 = S, r15 = z. Wo·y needs the full y, a second exchange per
		// step the insertion tool does not make: no scaled step program.
		state: []uint8{2, 15}, step: attnStep, ref: (*Reference).stepAttention,
	},
}

func (k RNNKind) cell() (cell, bool) {
	if k < 0 || int(k) >= len(cells) {
		return cell{}, false
	}
	return cells[k], true
}

// ScalesDown reports whether the cell has a scaled step program, that is
// whether BuildShard builds it across more than one device.
func (k RNNKind) ScalesDown() bool {
	c, ok := k.cell()
	return ok && c.shardOwn != 0
}

// mats lists the cell's matrices in matrix-register order.
func (c cell) mats() []string { return append(append([]string{}, c.wx...), c.uh...) }

func (k RNNKind) String() string {
	if c, ok := k.cell(); ok {
		return c.name
	}
	return fmt.Sprintf("RNNKind(%d)", int(k))
}

// ParseKind is String's inverse, ignoring case: the one table of cell
// names for everything that reads a kind from outside (the /deploy body,
// the .mlw workload DSL).
func ParseKind(name string) (RNNKind, bool) {
	for k, c := range cells {
		if strings.EqualFold(name, c.name) {
			return RNNKind(k), true
		}
	}
	return 0, false
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
	c, _ := kind.cell()
	scale := 1.0 / math.Sqrt(float64(hidden))
	for _, name := range c.mats() {
		w.M[name] = normals(r, hidden*hidden, scale)
	}
	for _, name := range c.bias {
		w.B[name] = normals(r, hidden, 0.1)
	}
	return w
}

// normals returns the next n standard normal draws of r, times scale.
func normals(r *rand.Rand, n int, scale float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64() * scale
	}
	return xs
}

// Kernel is a compiled inference task: the program, the initial DRAM
// image, and the address map — of a whole layer (Build), or of one device's
// share of a layer scaled down across n (BuildShard; Build is its n = 1).
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
	// rows is the device's share of Hidden: the rows it holds of every
	// matrix and bias and the width of the h_t it stores (OutputAddr's
	// stride stays Hidden, so inputs and outputs bank under one SlotOffset).
	rows int
}

// InputAddr returns the DRAM word address of x_t.
func (k *Kernel) InputAddr(t int) int { return k.inputBase + t*k.Spec.Hidden }

// OutputAddr returns the DRAM word address where the device's rows of h_t
// are stored.
func (k *Kernel) OutputAddr(t int) int { return k.outputBase + t*k.Spec.Hidden }

// NewMachine builds a machine loaded with the kernel's DRAM image and
// matrix shapes.
func (k *Kernel) NewMachine() (*accel.Machine, error) {
	dram, err := k.NewDRAM()
	if err != nil {
		return nil, err
	}
	return k.NewMachineOn(dram)
}

// NewDRAM returns the DRAM NewMachine builds over, for callers that wrap
// it (the scale-out sync module) and hand the result to NewMachineOn. Its
// image is shared by every machine of the kernel (see imageDRAM).
func (k *Kernel) NewDRAM() (accel.DRAM, error) { return newImageDRAM(k.Image, k.Cfg.DRAMWords) }

// NewMachineOn builds the kernel's machine over dram, which must serve the
// kernel's image at address 0. Its streams are sized to the kernel's
// programs (accel.Machine.SizeStreams).
func (k *Kernel) NewMachineOn(dram accel.DRAM) (*accel.Machine, error) {
	m, err := accel.NewWithDRAM(k.Cfg, dram)
	if err != nil {
		return nil, err
	}
	for i := 0; i < MVMsPerStep(k.Spec.Kind); i++ {
		if err := m.ConfigureMatrix(i, k.rows, k.Spec.Hidden); err != nil {
			return nil, err
		}
	}
	m.SizeStreams(k.StreamInit, k.Step)
	return m, nil
}

// LoadTiles quantizes the kernel's tiles once, for every machine of the
// kernel to bind (accel.Machine.BindTiles). The machine that loads them
// holds the image alone; SharedInit only reads tiles, so it cuts no stream
// state.
func (k *Kernel) LoadTiles() (*accel.TileSet, error) {
	m, err := k.NewMachineOn(&imageDRAM{image: k.Image})
	if err != nil {
		return nil, err
	}
	if err := m.Run(k.SharedInit); err != nil {
		return nil, err
	}
	return m.Tiles(), nil
}

// NewBatchMachine builds a machine sized for RunStreams over up to batch
// input streams: only its DRAM is right-sized, to the shared image plus the
// banked per-stream windows, so a serving pool stays cheap and binds one
// set of tiles (its configuration is the kernel's).
func (k *Kernel) NewBatchMachine(batch int) (*accel.Machine, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("kernels: batch = %d", batch)
	}
	need := k.inputBase + batch*k.StreamStride()
	if need > k.Cfg.DRAMWords {
		return nil, fmt.Errorf("kernels: batch %d needs %d DRAM words, board has %d", batch, need, k.Cfg.DRAMWords)
	}
	dram, err := newImageDRAM(k.Image, need)
	if err != nil {
		return nil, err
	}
	return k.NewMachineOn(dram)
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
	return k.SetInputStream(m, 0, t, x, make([]fp16.Num, len(x)))
}

// SetInputStream writes stream s's x_t into the machine's DRAM, rounding it
// to binary16 through half, a scratch of at least Hidden words.
func (k *Kernel) SetInputStream(m *accel.Machine, s, t int, x []float64, half []fp16.Num) error {
	if len(x) != k.Spec.Hidden {
		return fmt.Errorf("kernels: input length %d, want %d", len(x), k.Spec.Hidden)
	}
	fp16.FromSlice64Into(half, x)
	return m.DRAMPort().WriteWords(k.StreamInputAddr(s, t), half[:len(x)])
}

// ReadOutput reads the device's rows of h_t back from DRAM.
func (k *Kernel) ReadOutput(m *accel.Machine, t int) ([]float64, error) {
	out := make([]float64, k.rows)
	return out, k.ReadOutputStream(m, 0, t, out, make([]fp16.Num, k.rows))
}

// ReadOutputStream widens stream s's h_t — the device's rows of it — into
// dst, reading through half; both hold at least that many words.
func (k *Kernel) ReadOutputStream(m *accel.Machine, s, t int, dst []float64, half []fp16.Num) error {
	half = half[:k.rows]
	if err := m.DRAMPort().ReadWordsInto(half, k.StreamOutputAddr(s, t)); err != nil {
		return err
	}
	fp16.ToSlice64Into(dst, half)
	return nil
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

// HiddenReg is the vector register the step programs read h_{t-1} from in
// full: what a scaled-down device's blocking receive loads (§2.3).
const HiddenReg = 1

// Build compiles a layer into a kernel: weights and biases are laid out in
// DRAM, the per-timestep instruction sequence is generated, and the
// program is terminated with end_chain.
func Build(w *Weights, timeSteps, tiles int) (*Kernel, error) {
	return BuildShard(w, timeSteps, tiles, 0, 1)
}

// BuildRandom is Build(RandomWeights(spec.Kind, spec.Hidden, seed),
// spec.TimeSteps, tiles), word for word, for callers that never read the
// float64 weights: the same draws, rounded straight into the image.
func BuildRandom(spec LayerSpec, tiles int, seed int64) (*Kernel, error) {
	k, err := build(spec, tiles, 0, 1, nil)
	if err != nil {
		return nil, err
	}
	r, scale := rand.New(rand.NewSource(seed)), 1.0/math.Sqrt(float64(spec.Hidden))
	mats := MVMsPerStep(spec.Kind) * spec.Hidden * spec.Hidden
	for i := range k.Image {
		if i == mats {
			scale = 0.1 // the biases follow the matrices
		}
		k.Image[i] = fp16.FromFloat64(r.NormFloat64() * scale)
	}
	return k, nil
}

// BuildShard compiles device dev's share of a layer scaled down across n
// devices (§2.3): the unmodified control path — the same step program —
// over rows [dev*h/n, (dev+1)*h/n) of every matrix and bias, so gates are
// h/n long (bias loads and state zeroing carry the 1/n length mode) and the
// device stores its own rows of every h_t. For n > 1 the exchange that
// refills HiddenReg is still missing; scaleout.InsertSync adds it.
func BuildShard(w *Weights, timeSteps, tiles, dev, n int) (*Kernel, error) {
	return build(LayerSpec{Kind: w.Kind, Hidden: w.Hidden, TimeSteps: timeSteps}, tiles, dev, n, w)
}

// build is BuildShard over w's rows, or over a zero image when w is nil.
func build(spec LayerSpec, tiles, dev, n int, w *Weights) (*Kernel, error) {
	if spec.TimeSteps <= 0 {
		return nil, fmt.Errorf("kernels: timeSteps = %d", spec.TimeSteps)
	}
	c, ok := spec.Kind.cell()
	if !ok {
		return nil, fmt.Errorf("kernels: unknown cell %v", spec.Kind)
	}
	mode, err := accel.LengthMode(n)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	h, timeSteps := spec.Hidden, spec.TimeSteps
	if h%n != 0 || dev < 0 || dev >= n {
		return nil, fmt.Errorf("kernels: device %d of %d for hidden %d", dev, n, h)
	}
	own := c.shardOwn
	if n == 1 {
		own = HiddenReg
	} else if own == 0 {
		return nil, fmt.Errorf("kernels: no scaled step program for %v", spec.Kind)
	}
	rows := h / n
	cfg := DefaultConfig(spec, tiles)
	k := &Kernel{Spec: spec, Cfg: cfg, rows: rows}

	// DRAM layout: the device's rows of every matrix, then of every bias
	// (together the image), then the inputs and the outputs (zero).
	mats := c.mats()
	imageWords := (len(mats)*h + len(c.bias)) * rows
	k.inputBase, k.outputBase = imageWords, imageWords+h*timeSteps
	if need := k.outputBase + h*timeSteps; need > cfg.DRAMWords {
		return nil, fmt.Errorf("kernels: layer needs %d DRAM words, have %d", need, cfg.DRAMWords)
	}
	k.Image = make([]fp16.Num, imageWords)

	// Prologue: load matrices (m0..), biases (r3..), zero the state.
	var alloc allocator
	var shared, sinit isa.Program
	for i, name := range mats {
		addr := alloc.alloc(rows * h)
		if w != nil {
			fp16.FromSlice64Into(k.Image[addr:], w.M[name][dev*rows*h:(dev+1)*rows*h])
		}
		shared = append(shared, isa.Instr{Op: isa.OpMRead, Dst: uint8(i), Imm: uint32(addr)})
	}
	for i, name := range c.bias {
		addr := alloc.alloc(rows)
		if w != nil {
			fp16.FromSlice64Into(k.Image[addr:], w.B[name][dev*rows:(dev+1)*rows])
		}
		sinit = append(sinit, isa.Instr{Op: isa.OpVRead, Dst: uint8(3 + i), Src2: mode, Imm: uint32(addr)})
	}
	zero := func(r, mode uint8) {
		sinit = append(sinit, isa.Instr{Op: isa.OpVConst, Dst: r, Src1: mode})
	}
	zero(HiddenReg, 0)
	for _, r := range c.state {
		zero(r, mode)
	}
	if n > 1 && c.readsOwn {
		zero(own, mode)
	}

	timestep := func(t int) isa.Program {
		s := isa.Program{{Op: isa.OpVRead, Dst: 0, Imm: uint32(k.InputAddr(t))}}
		s = append(s, c.step(own)...)
		return append(s, isa.Instr{Op: isa.OpVWrite, Src1: own, Imm: uint32(k.OutputAddr(t))})
	}
	p := append(append(isa.Program{}, shared...), sinit...)
	for t := 0; t < timeSteps; t++ {
		p = append(p, timestep(t)...)
	}
	k.Prog = append(p, isa.Instr{Op: isa.OpEndChain})
	// The step program is timestep 0's slice; SlotOffset banks it onto any
	// (slot, timestep) pair.
	k.Step = append(timestep(0), isa.Instr{Op: isa.OpEndChain})
	k.SharedInit = append(shared, isa.Instr{Op: isa.OpEndChain})
	k.StreamInit = append(sinit, isa.Instr{Op: isa.OpEndChain})
	return k, nil
}

// Every step is scheduled x-first: each W·x product precedes the first
// product on h, so on a scaled-down device the reordering tool can sink the
// blocking receive of h past the whole x-dependent prefix ("maximally
// overlap", §2.3). One device runs the same order.

// lstmStep emits one LSTM timestep. Register convention:
// r0=x_t r1=h r2=c r3..r6=bi,bf,bo,bc; m0..m3=Wi,Wf,Wo,Wc; m4..m7=Ui..Uc.
func lstmStep(own uint8) isa.Program {
	I := func(op isa.Opcode, d, s1, s2 uint8) isa.Instr {
		return isa.Instr{Op: op, Dst: d, Src1: s1, Src2: s2}
	}
	return isa.Program{
		// x-dependent prefix: all four W*x products.
		I(isa.OpMVMul, 7, 0, 0),  // Wi x
		I(isa.OpMVMul, 8, 1, 0),  // Wf x
		I(isa.OpMVMul, 9, 2, 0),  // Wo x
		I(isa.OpMVMul, 10, 3, 0), // Wc x
		// h-dependent products and gate math.
		I(isa.OpMVMul, 11, 4, 1), // Ui h
		I(isa.OpVVAdd, 7, 7, 11),
		I(isa.OpMVMul, 11, 5, 1), // Uf h
		I(isa.OpVVAdd, 8, 8, 11),
		I(isa.OpMVMul, 11, 6, 1), // Uo h
		I(isa.OpVVAdd, 9, 9, 11),
		I(isa.OpMVMul, 11, 7, 1), // Uc h
		I(isa.OpVVAdd, 10, 10, 11),
		I(isa.OpVVAdd, 7, 7, 3),
		I(isa.OpVSigm, 7, 7, 0), // i
		I(isa.OpVVAdd, 8, 8, 4),
		I(isa.OpVSigm, 8, 8, 0), // f
		I(isa.OpVVAdd, 9, 9, 5),
		I(isa.OpVSigm, 9, 9, 0), // o
		I(isa.OpVVAdd, 10, 10, 6),
		I(isa.OpVTanh, 10, 10, 0),  // g
		I(isa.OpVVMul, 11, 8, 2),   // f*c
		I(isa.OpVVMul, 12, 7, 10),  // i*g
		I(isa.OpVVAdd, 2, 11, 12),  // c'
		I(isa.OpVTanh, 13, 2, 0),   // tanh(c')
		I(isa.OpVVMul, own, 9, 13), // h' = o * tanh(c')
	}
}

// gruStep emits one GRU timestep. Register convention:
// r0=x_t r1=h r3..r5=bz,br,bn; m0..m2=Wz,Wr,Wn; m3..m5=Uz,Ur,Un.
func gruStep(own uint8) isa.Program {
	const one = 0x3C00 // float16 1.0
	I := func(op isa.Opcode, d, s1, s2 uint8) isa.Instr {
		return isa.Instr{Op: op, Dst: d, Src1: s1, Src2: s2}
	}
	return isa.Program{
		// x-dependent prefix: all three W*x products.
		I(isa.OpMVMul, 7, 0, 0), // Wz x
		I(isa.OpMVMul, 8, 1, 0), // Wr x
		I(isa.OpMVMul, 9, 2, 0), // Wn x
		// h-dependent gate math.
		I(isa.OpMVMul, 10, 3, 1), // Uz h
		I(isa.OpVVAdd, 7, 7, 10),
		I(isa.OpVVAdd, 7, 7, 3),
		I(isa.OpVSigm, 7, 7, 0),  // z
		I(isa.OpMVMul, 10, 4, 1), // Ur h
		I(isa.OpVVAdd, 8, 8, 10),
		I(isa.OpVVAdd, 8, 8, 4),
		I(isa.OpVSigm, 8, 8, 0),   // r
		I(isa.OpMVMul, 10, 5, 1),  // Un h
		I(isa.OpVVMul, 10, 8, 10), // r ⊙ (Un h)
		I(isa.OpVVAdd, 9, 9, 10),
		I(isa.OpVVAdd, 9, 9, 5),
		I(isa.OpVTanh, 9, 9, 0),                       // n
		{Op: isa.OpVRsub, Dst: 10, Src1: 7, Imm: one}, // 1-z
		I(isa.OpVVMul, 10, 10, 9),                     // (1-z) n
		I(isa.OpVVMul, 11, 7, own),                    // z ⊙ the own rows of h
		I(isa.OpVVAdd, own, 10, 11),                   // h'
	}
}

// attnStep emits one recurrent-attention timestep. Register convention:
// r0=x_t r1=h r2=S r15=z r3..r6=bq,bk,bv,bo; m0..m3=Wq,Wk,Wv,Wo.
func attnStep(own uint8) isa.Program {
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
		I(isa.OpVVMul, 10, 2, 10),  // S / z
		I(isa.OpVVMul, 10, 7, 10),  // y = σ(q) ⊙ (S/z)
		I(isa.OpMVMul, 11, 3, 10),  // Wo y
		I(isa.OpVVAdd, own, 11, 6), // h' = Wo y + bo
	}
}

// StepInstructions returns the number of instructions one timestep costs
// (including the x_t load and h_t store), used by the timing model.
func StepInstructions(kind RNNKind) int {
	if _, ok := kind.cell(); !ok {
		return 0
	}
	return stepInstructions[kind]
}

// stepInstructions is StepInstructions per cell, counted once.
var stepInstructions = func() (n [len(cells)]int) {
	for k, c := range cells {
		n[k] = len(c.step(HiddenReg)) + 2
	}
	return n
}()

// MVMsPerStep returns how many h x h matrix-vector products one timestep
// performs: one per weight matrix the cell holds resident.
func MVMsPerStep(kind RNNKind) int {
	c, _ := kind.cell()
	return len(c.wx) + len(c.uh)
}
