package accel

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"mlvfpga/internal/bfp"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/isa"
)

// The MFU activation functions are pure maps over 16-bit inputs, so the
// simulator models them the way the hardware does: as lookup tables, built
// once from the exact fp16 routines (bit-identical by construction).
var (
	actOnce  sync.Once
	sigmTab  [1 << 16]fp16.Num
	tanhTab  [1 << 16]fp16.Num
	expTab   [1 << 16]fp16.Num
	recipTab [1 << 16]fp16.Num
)

func actTables() (sigm, tanh, exp, recip *[1 << 16]fp16.Num) {
	actOnce.Do(func() {
		for i := 0; i < 1<<16; i++ {
			sigmTab[i] = fp16.Sigmoid(fp16.Num(i))
			tanhTab[i] = fp16.Tanh(fp16.Num(i))
			expTab[i] = fp16.Exp(fp16.Num(i))
			recipTab[i] = fp16.Recip(fp16.Num(i))
		}
	})
	return &sigmTab, &tanhTab, &expTab, &recipTab
}

// streamCtx is one batch stream's architectural and scratch state: a
// private vector register file plus the preallocated buffers the
// steady-state step loop reuses instead of allocating per instruction.
type streamCtx struct {
	off int // DRAM offset applied to banked (>= window base) addresses

	regs []vreg

	f64  []float64 // float64 staging for vector quantization
	prod []float64 // mv_mul product staging
}

// vreg is one vector register of a stream. Its storage outlives its value:
// a register whose value is dropped (never written, a failed v_rd, a
// restored nil) reads as an error until the next write fills the same
// storage.
type vreg struct {
	val []fp16.Num
	// q memoizes the BFP quantization of val (with the facts the packed
	// kernel checks) while fresh; every write clears fresh. In an LSTM step
	// the same x/h vector feeds four mv_muls, so the memo cuts vector
	// quantization 4x.
	q     bfp.Vector
	set   bool // val holds a value
	fresh bool
}

// SizeStreams sizes the streams m builds from now on to what progs use: of
// the first 64 vector registers, those they write get VecLen words each and
// those mv_mul reads a quantization memo, cut in a handful of allocations on
// a stream's first write. Any other register, or a value longer than
// VecLen, is allocated on its own first write.
func (m *Machine) SizeStreams(progs ...isa.Program) {
	for _, p := range progs {
		for _, ins := range p {
			switch ins.Op {
			case isa.OpVWrite, isa.OpMRead, isa.OpEndChain:
				continue
			case isa.OpMVMul:
				m.quant |= 1 << ins.Src2
			}
			m.writes |= 1 << ins.Dst
		}
	}
}

// newStream cuts sc's state from one slab per element type, on the
// stream's first write: a machine that only loads tiles, or a stream never
// used, holds none.
func (m *Machine) newStream(sc *streamCtx) {
	vl, nd, nq := m.cfg.VecLen, m.cfg.NativeDim, bits.OnesCount64(m.quant)
	nb := (vl + nd - 1) / nd
	sc.regs = make([]vreg, m.cfg.VRegs)
	vals := make([]fp16.Num, bits.OnesCount64(m.writes)*vl)
	blocks, mants := make([]bfp.Block, nq*nb), make([]int32, nq*vl)
	for i := range sc.regs {
		r := &sc.regs[i]
		if m.writes>>i&1 != 0 {
			r.val, vals = vals[:0:vl], vals[vl:]
		}
		if m.quant>>i&1 != 0 {
			r.q.Blocks, blocks = blocks[:nb:nb], blocks[nb:]
			for j := range r.q.Blocks {
				n := min(nd, vl-j*nd)
				r.q.Blocks[j].Mant, mants = mants[:0:n], mants[n:]
			}
		}
	}
	f := make([]float64, 2*vl)
	sc.f64, sc.prod = f[:0:vl], f[vl:vl]
}

func (m *Machine) ensureStreams(n int) {
	for len(m.streams) < n {
		m.streams = append(m.streams, streamCtx{})
		m.bvecs = append(m.bvecs, bfp.Vector{})
		m.bprods = append(m.bprods, nil)
	}
}

// ErrProgramTooLarge is returned when a program exceeds the instruction
// buffer.
var ErrProgramTooLarge = errors.New("accel: program exceeds instruction buffer")

// ExecError locates a failed instruction: PC indexes the program the
// machine was given.
type ExecError struct {
	PC    int
	Instr isa.Instr
	Err   error
}

func (e *ExecError) Error() string { return fmt.Sprintf("accel: pc %d (%s): %v", e.PC, e.Instr, e.Err) }

func (e *ExecError) Unwrap() error { return e.Err }

// ErrNoStreams is returned by RunStreams for an empty selection.
var ErrNoStreams = errors.New("accel: RunStreams requires at least one stream")

// ErrStreamRange is returned by RunStreams for a negative stream index, a
// stream named twice in one selection, or mismatched streams/offsets
// lengths.
var ErrStreamRange = errors.New("accel: bad stream selection")

// Run executes the program to completion (through end_chain or the end of
// the sequence) in stream 0, unbanked.
func (m *Machine) Run(p isa.Program) error { return m.RunStreams(p, 0, stream0, stream0) }

// RunStreams executes p over a selection of the machine's streams, banking
// DRAM per stream: streams[i] selects a stream context (a private register
// file), each at most once, and its DRAM accesses at or above base are
// shifted by offsets[i]; lower addresses are shared (weights, biases, code
// constants). m_rd addresses are never banked — the point of batching is
// that every stream multiplies against the same stationary tile, fetched
// and quantized (or served from cache) once for the whole selection. The
// selection need not be a contiguous prefix and the offsets are free per
// call, so a slot-granular serving engine can step a cohort of streams
// sitting at different positions of their programs: register files
// persist across calls. The results — register files, DRAM writes and
// accumulated ExecStats — are bit-identical to running each stream's
// instruction sequence alone, provided the per-stream DRAM ranges do not
// overlap each other or the shared window.
func (m *Machine) RunStreams(p isa.Program, base int, streams, offsets []int) error {
	if len(streams) == 0 {
		return ErrNoStreams
	}
	if len(streams) != len(offsets) {
		return fmt.Errorf("%w: %d streams, %d offsets", ErrStreamRange, len(streams), len(offsets))
	}
	max := 0
	for i, s := range streams {
		if s < 0 || slices.Contains(streams[:i], s) {
			return fmt.Errorf("%w: stream %d", ErrStreamRange, s)
		}
		if s > max {
			max = s
		}
	}
	m.ensureStreams(max + 1)
	for i, s := range streams {
		m.streams[s].off = offsets[i]
	}
	m.base = base
	return m.exec(p, streams)
}

// stream0 is Run's selection and offsets.
var stream0 = []int{0}

// exec runs p over the selected streams, which exist.
func (m *Machine) exec(p isa.Program, streams []int) error {
	if m.cfg.InstrBufBytes > 0 && p.Bytes() > m.cfg.InstrBufBytes {
		return fmt.Errorf("%w: %d > %d bytes", ErrProgramTooLarge, p.Bytes(), m.cfg.InstrBufBytes)
	}
	for pc, ins := range p {
		done, err := m.stepAll(ins, streams)
		if err != nil {
			return &ExecError{PC: pc, Instr: ins, Err: err}
		}
		if done {
			return nil
		}
	}
	return nil
}

// stepAll executes one instruction across every stream. Stats are counted
// once per stream so a batched run accumulates exactly what the equivalent
// sequential runs would.
func (m *Machine) stepAll(ins isa.Instr, streams []int) (done bool, err error) {
	n := len(streams)
	m.stats.Instructions += n
	if ins.Op < isa.NumOpcodes { // an opcode past the ISA is step1's error, not a panic
		m.stats.ByOp[ins.Op] += n
	}
	switch ins.Op {
	case isa.OpMRead:
		return false, m.mRead(ins, n)
	case isa.OpMVMul:
		return false, m.mvMul(ins, streams)
	case isa.OpEndChain:
		return true, nil
	default:
		for _, s := range streams {
			if err := m.step1(&m.streams[s], ins); err != nil {
				return false, err
			}
		}
		return false, nil
	}
}

func (m *Machine) vreg(r uint8) (int, error) {
	if int(r) >= m.cfg.VRegs {
		return 0, fmt.Errorf("vector register r%d out of range (%d)", r, m.cfg.VRegs)
	}
	return int(r), nil
}

func (m *Machine) loadedV(sc *streamCtx, r uint8) ([]fp16.Num, error) {
	idx, err := m.vreg(r)
	if err != nil {
		return nil, err
	}
	if idx >= len(sc.regs) || !sc.regs[idx].set { // no regs: nothing written yet
		return nil, fmt.Errorf("vector register r%d read before write", r)
	}
	return sc.regs[idx].val, nil
}

// dstBuf returns vector register idx resized to n elements, reusing its
// storage when capacity allows (the steady-state case: register shapes
// are fixed by the program, and a stream sized by SizeStreams starts with
// VecLen words in each register its programs write). The write
// invalidates the register's quantization memo.
func (m *Machine) dstBuf(sc *streamCtx, idx, n int) []fp16.Num {
	if sc.regs == nil {
		m.newStream(sc)
	}
	r := &sc.regs[idx]
	if cap(r.val) >= n {
		r.val = r.val[:n]
	} else {
		r.val = make([]fp16.Num, n, max(n, m.cfg.VecLen))
	}
	r.set, r.fresh = true, false
	return r.val
}

func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// bankAddr applies the stream's banking offset to a DRAM address inside
// the batched window.
func (m *Machine) bankAddr(sc *streamCtx, imm uint32) int {
	addr := int(imm)
	if sc.off != 0 && addr >= m.base {
		addr += sc.off
	}
	return addr
}

// shardDivisors[mode] divides VecLen for length-register selector mode: the
// one table behind shardLen (selector → length) and LengthMode (group size
// → selector).
var shardDivisors = [...]int{1, 2, 4}

// shardLen decodes a length-register selector: 0 = VecLen, 1 = VecLen/2,
// 2 = VecLen/4.
func (m *Machine) shardLen(mode uint8) (int, error) {
	if int(mode) >= len(shardDivisors) {
		return 0, fmt.Errorf("unknown vector length mode %d", mode)
	}
	return m.cfg.VecLen / shardDivisors[mode], nil
}

// LengthMode returns the v_rd/v_const length selector for a 1/n shard of
// the vector length: what a program scaled down across n devices (§2.3)
// loads its bias shards and zeroes its state with.
func LengthMode(n int) (uint8, error) {
	for mode, d := range shardDivisors {
		if d == n {
			return uint8(mode), nil
		}
	}
	return 0, fmt.Errorf("accel: no vector length mode for a 1/%d shard (want 1, 2 or 4)", n)
}

// mRead executes m_rd once for the whole batch: on a tile-cache hit the
// register already holds the quantized tile for that DRAM range and shape;
// on a miss the tile is read and quantized into the packed layout and the
// cache entry recorded. Stats mirror nStreams sequential runs: the first
// would miss and the rest hit.
func (m *Machine) mRead(ins isa.Instr, nStreams int) error {
	if int(ins.Dst) >= m.cfg.MRegs {
		return fmt.Errorf("matrix register r%d out of range (%d)", ins.Dst, m.cfg.MRegs)
	}
	t := &m.mregs[ins.Dst]
	if t.rows == 0 {
		return fmt.Errorf("matrix register r%d has no configured shape", ins.Dst)
	}
	// Matrix addresses are never banked: weights are shared by all streams.
	addr := int(ins.Imm)
	words := t.rows * t.cols
	if t.valid && t.addr == addr && t.words == words {
		m.stats.TileCacheHits += int64(nStreams)
		return nil
	}
	// The tile streams out of DRAM a row at a time, never widened, into the
	// register's old storage when the shape matches and no other machine
	// holds it. Until the last row lands the register holds no tile.
	old := t.mat
	if t.shared {
		old = nil
	}
	t.mat, t.valid = nil, false
	half := grow(&m.rowHalf, t.cols)
	mat, err := m.codec.QuantizeHalfPacked(old, t.rows, t.cols, m.cfg.NativeDim, func(r int) ([]fp16.Num, error) {
		return half, m.dram.ReadWordsInto(half, addr+r*t.cols)
	})
	if err != nil {
		return err
	}
	t.mat, t.addr, t.words, t.valid, t.shared = mat, addr, words, true, false
	m.stats.DRAMReads += int64(words)
	m.stats.TileCacheMisses++
	m.stats.TileCacheHits += int64(nStreams - 1)
	return nil
}

// mvMul executes one matrix-vector multiply for every stream against the
// stationary tile: per-stream vectors are quantized (through the per-
// register memo), gathered, and multiplied row-groups-outer/streams-inner
// so the packed tile streams through the cache once per batch.
func (m *Machine) mvMul(ins isa.Instr, streams []int) error {
	dst, err := m.vreg(ins.Dst)
	if err != nil {
		return err
	}
	if int(ins.Src1) >= m.cfg.MRegs || m.mregs[ins.Src1].mat == nil {
		return fmt.Errorf("matrix register r%d not loaded", ins.Src1)
	}
	mat := m.mregs[ins.Src1].mat
	for si, s := range streams {
		sc := &m.streams[s]
		vec, err := m.loadedV(sc, ins.Src2)
		if err != nil {
			return err
		}
		if len(vec) != mat.Cols {
			return fmt.Errorf("mv_mul shape mismatch: matrix %dx%d, vector %d", mat.Rows, mat.Cols, len(vec))
		}
		if r := &sc.regs[ins.Src2]; !r.fresh {
			f := grow(&sc.f64, len(vec))
			fp16.ToSlice64Into(f, vec)
			qb, err := m.codec.QuantizeVectorInto(r.q.Blocks, f, m.cfg.NativeDim)
			if err != nil {
				return err
			}
			r.q, r.fresh = bfp.Describe(qb), true
		}
		m.bvecs[si] = sc.regs[ins.Src2].q
		m.bprods[si] = grow(&sc.prod, mat.Rows)
	}
	if err := mat.MatVecBatchInto(m.bprods[:len(streams)], m.bvecs[:len(streams)]); err != nil {
		return err
	}
	for si, s := range streams {
		out := m.dstBuf(&m.streams[s], dst, mat.Rows)
		fp16.FromSlice64Into(out, m.bprods[si])
		m.stats.MACs += int64(mat.Rows) * int64(mat.Cols)
	}
	return nil
}

// step1 executes one non-batched-special instruction in one stream.
// Element-wise destinations may alias their sources: each output element
// depends only on the same-index input elements, which are read before the
// write (the scratch-arena aliasing rule documented in DESIGN.md §7).
func (m *Machine) step1(sc *streamCtx, ins isa.Instr) error {
	switch ins.Op {
	case isa.OpVRead:
		dst, err := m.vreg(ins.Dst)
		if err != nil {
			return err
		}
		// Src2 selects the vector length register: 0 = full VecLen,
		// 1 = VecLen/2, 2 = VecLen/4 (scaled-down accelerators operate on
		// 1/n shards of the hidden dimension, §2.3).
		n, err := m.shardLen(ins.Src2)
		if err != nil {
			return err
		}
		buf := m.dstBuf(sc, dst, n)
		if err := m.dram.ReadWordsInto(buf, m.bankAddr(sc, ins.Imm)); err != nil {
			sc.regs[dst].set = false // failed load leaves the register unreadable
			return err
		}
		m.stats.DRAMReads += int64(n)

	case isa.OpVWrite:
		src, err := m.loadedV(sc, ins.Src1)
		if err != nil {
			return err
		}
		if err := m.dram.WriteWords(m.bankAddr(sc, ins.Imm), src); err != nil {
			return err
		}
		m.stats.DRAMWrites += int64(len(src))

	case isa.OpVVAdd, isa.OpVVSub, isa.OpVVMul:
		dst, err := m.vreg(ins.Dst)
		if err != nil {
			return err
		}
		a, err := m.loadedV(sc, ins.Src1)
		if err != nil {
			return err
		}
		b, err := m.loadedV(sc, ins.Src2)
		if err != nil {
			return err
		}
		if len(a) != len(b) {
			return fmt.Errorf("%s length mismatch: %d vs %d", ins.Op, len(a), len(b))
		}
		out := m.dstBuf(sc, dst, len(a))
		switch ins.Op {
		case isa.OpVVAdd:
			for i := range a {
				out[i] = fp16.Add(a[i], b[i])
			}
		case isa.OpVVSub:
			for i := range a {
				out[i] = fp16.Sub(a[i], b[i])
			}
		case isa.OpVVMul:
			for i := range a {
				out[i] = fp16.Mul(a[i], b[i])
			}
		}
		m.stats.VectorOps += int64(len(a))

	case isa.OpVSigm, isa.OpVTanh, isa.OpVRelu, isa.OpVPass, isa.OpVExp, isa.OpVRecip:
		dst, err := m.vreg(ins.Dst)
		if err != nil {
			return err
		}
		a, err := m.loadedV(sc, ins.Src1)
		if err != nil {
			return err
		}
		out := m.dstBuf(sc, dst, len(a))
		switch ins.Op {
		case isa.OpVSigm:
			for i, x := range a {
				out[i] = m.sigm[x]
			}
		case isa.OpVTanh:
			for i, x := range a {
				out[i] = m.tanh[x]
			}
		case isa.OpVExp:
			for i, x := range a {
				out[i] = m.exp[x]
			}
		case isa.OpVRecip:
			for i, x := range a {
				out[i] = m.recip[x]
			}
		case isa.OpVRelu:
			for i, x := range a {
				if fp16.Less(x, fp16.PositiveZero) {
					out[i] = fp16.PositiveZero
				} else {
					out[i] = x
				}
			}
		case isa.OpVPass:
			copy(out, a)
		}
		m.stats.VectorOps += int64(len(a))

	case isa.OpVConst:
		dst, err := m.vreg(ins.Dst)
		if err != nil {
			return err
		}
		// Src1 selects the length register, as for v_rd.
		n, err := m.shardLen(ins.Src1)
		if err != nil {
			return err
		}
		out := m.dstBuf(sc, dst, n)
		c := fp16.Num(ins.Imm)
		for i := range out {
			out[i] = c
		}
		m.stats.VectorOps += int64(len(out))

	case isa.OpVRsub:
		dst, err := m.vreg(ins.Dst)
		if err != nil {
			return err
		}
		a, err := m.loadedV(sc, ins.Src1)
		if err != nil {
			return err
		}
		c := fp16.Num(ins.Imm)
		out := m.dstBuf(sc, dst, len(a))
		for i, x := range a {
			out[i] = fp16.Sub(c, x)
		}
		m.stats.VectorOps += int64(len(a))

	default:
		return fmt.Errorf("unimplemented opcode %v", ins.Op)
	}
	return nil
}
