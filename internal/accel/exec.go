package accel

import (
	"errors"
	"fmt"
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

	vrf [][]fp16.Num
	ver []uint64 // bumped on every write to the corresponding vreg

	// qvec memoizes the BFP quantization of each vector register (with the
	// facts the packed kernel checks); qver records the register version it
	// was computed at. In an LSTM step the same x/h vector feeds four
	// mv_muls, so the memo cuts vector quantization 4x.
	qver []uint64
	qvec []bfp.Vector

	f64  []float64 // float64 staging for vector quantization
	prod []float64 // mv_mul product staging
}

func (m *Machine) newStream() *streamCtx {
	return &streamCtx{
		vrf:  make([][]fp16.Num, m.cfg.VRegs),
		ver:  make([]uint64, m.cfg.VRegs),
		qver: make([]uint64, m.cfg.VRegs),
		qvec: make([]bfp.Vector, m.cfg.VRegs),
	}
}

func (m *Machine) ensureStreams(n int) {
	for len(m.streams) < n {
		m.streams = append(m.streams, m.newStream())
	}
	for len(m.bvecs) < n {
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

// ErrStreamRange is returned by RunStreams for a negative stream index or
// mismatched streams/offsets lengths.
var ErrStreamRange = errors.New("accel: bad stream selection")

// Run executes the program to completion (through end_chain or the end of
// the sequence) in stream 0.
func (m *Machine) Run(p isa.Program) error {
	m.base = 0
	m.streams[0].off = 0
	return m.exec(p, m.streams[:1])
}

// RunStreams executes p over a selection of the machine's streams, banking
// DRAM per stream: streams[i] selects a stream context (a private register
// file), and its DRAM accesses at or above base are shifted by offsets[i];
// lower addresses are shared (weights, biases, code constants). m_rd
// addresses are never banked — the point of batching is that every stream
// multiplies against the same stationary tile, fetched and quantized (or
// served from cache) once for the whole selection. The selection need not
// be a contiguous prefix and the offsets are free per call, so a
// slot-granular serving engine can step a cohort of streams sitting at
// different positions of their programs: register files persist across
// calls. The results — register files, DRAM writes and accumulated
// ExecStats — are bit-identical to running each stream's instruction
// sequence alone, provided the per-stream DRAM ranges do not overlap each
// other or the shared window.
func (m *Machine) RunStreams(p isa.Program, base int, streams, offsets []int) error {
	if len(streams) == 0 {
		return ErrNoStreams
	}
	if len(streams) != len(offsets) {
		return fmt.Errorf("%w: %d streams, %d offsets", ErrStreamRange, len(streams), len(offsets))
	}
	max := 0
	for _, s := range streams {
		if s < 0 {
			return fmt.Errorf("%w: stream %d", ErrStreamRange, s)
		}
		if s > max {
			max = s
		}
	}
	m.ensureStreams(max + 1)
	if cap(m.runScs) < len(streams) {
		m.runScs = make([]*streamCtx, len(streams))
	}
	scs := m.runScs[:len(streams)]
	for i, s := range streams {
		scs[i] = m.streams[s]
		scs[i].off = offsets[i]
	}
	m.base = base
	return m.exec(p, scs)
}

func (m *Machine) exec(p isa.Program, scs []*streamCtx) error {
	if m.cfg.InstrBufBytes > 0 && p.Bytes() > m.cfg.InstrBufBytes {
		return fmt.Errorf("%w: %d > %d bytes", ErrProgramTooLarge, p.Bytes(), m.cfg.InstrBufBytes)
	}
	for pc, ins := range p {
		done, err := m.stepAll(ins, scs)
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
func (m *Machine) stepAll(ins isa.Instr, scs []*streamCtx) (done bool, err error) {
	n := len(scs)
	m.stats.Instructions += n
	if ins.Op < isa.NumOpcodes { // an opcode past the ISA is step1's error, not a panic
		m.stats.ByOp[ins.Op] += n
	}
	switch ins.Op {
	case isa.OpMRead:
		return false, m.mRead(ins, n)
	case isa.OpMVMul:
		return false, m.mvMul(ins, scs)
	case isa.OpEndChain:
		return true, nil
	default:
		for _, sc := range scs {
			if err := m.step1(sc, ins); err != nil {
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
	if sc.vrf[idx] == nil {
		return nil, fmt.Errorf("vector register r%d read before write", r)
	}
	return sc.vrf[idx], nil
}

// dstBuf returns vector register idx resized to n elements, reusing its
// backing array when capacity allows (the steady-state case: register
// shapes are fixed by the program, so after the first run every write
// lands in a preallocated buffer). The register's version is bumped,
// invalidating its quantization memo.
func (m *Machine) dstBuf(sc *streamCtx, idx, n int) []fp16.Num {
	buf := sc.vrf[idx]
	if cap(buf) >= n {
		buf = buf[:n]
	} else {
		c := n
		if c < m.cfg.VecLen {
			c = m.cfg.VecLen
		}
		buf = make([]fp16.Num, n, c)
	}
	sc.vrf[idx] = buf
	sc.ver[idx]++
	return buf
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
// sequential run would miss and the remaining nStreams-1 would hit.
func (m *Machine) mRead(ins isa.Instr, nStreams int) error {
	if int(ins.Dst) >= m.cfg.MRegs {
		return fmt.Errorf("matrix register r%d out of range (%d)", ins.Dst, m.cfg.MRegs)
	}
	shape := m.mshape[ins.Dst]
	if shape.rows == 0 {
		return fmt.Errorf("matrix register r%d has no configured shape", ins.Dst)
	}
	// Matrix addresses are never banked: weights are shared by all streams.
	addr := int(ins.Imm)
	words := shape.rows * shape.cols
	t := &m.tiles[ins.Dst]
	if t.valid && t.addr == addr && t.words == words {
		m.stats.TileCacheHits += int64(nStreams)
		return nil
	}
	// The tile streams out of DRAM a row at a time, never widened, into the
	// register's old storage when the shape matches and no other machine
	// holds it. Until the last row lands the register holds no tile.
	old := m.mrf[ins.Dst]
	if t.shared {
		old = nil
	}
	m.mrf[ins.Dst], t.valid = nil, false
	half := grow(&m.rowHalf, shape.cols)
	mat, err := m.codec.QuantizeHalfPacked(old, shape.rows, shape.cols, m.cfg.NativeDim, func(r int) ([]fp16.Num, error) {
		return half, m.dram.ReadWordsInto(half, addr+r*shape.cols)
	})
	if err != nil {
		return err
	}
	m.mrf[ins.Dst] = mat
	*t = tileEntry{addr: addr, words: words, valid: true}
	m.stats.DRAMReads += int64(words)
	m.stats.TileCacheMisses++
	m.stats.TileCacheHits += int64(nStreams - 1)
	return nil
}

// mvMul executes one matrix-vector multiply for every stream against the
// stationary tile: per-stream vectors are quantized (through the per-
// register memo), gathered, and multiplied row-groups-outer/streams-inner
// so the packed tile streams through the cache once per batch.
func (m *Machine) mvMul(ins isa.Instr, scs []*streamCtx) error {
	dst, err := m.vreg(ins.Dst)
	if err != nil {
		return err
	}
	if int(ins.Src1) >= m.cfg.MRegs || m.mrf[ins.Src1] == nil {
		return fmt.Errorf("matrix register r%d not loaded", ins.Src1)
	}
	mat := m.mrf[ins.Src1]
	src := int(ins.Src2)
	for si, sc := range scs {
		vec, err := m.loadedV(sc, ins.Src2)
		if err != nil {
			return err
		}
		if len(vec) != mat.Cols {
			return fmt.Errorf("mv_mul shape mismatch: matrix %dx%d, vector %d", mat.Rows, mat.Cols, len(vec))
		}
		if sc.qver[src] != sc.ver[src] {
			f := grow(&sc.f64, len(vec))
			fp16.ToSlice64Into(f, vec)
			qb, err := m.codec.QuantizeVectorInto(sc.qvec[src].Blocks, f, m.cfg.NativeDim)
			if err != nil {
				return err
			}
			sc.qvec[src] = bfp.Describe(qb)
			sc.qver[src] = sc.ver[src]
		}
		m.bvecs[si] = sc.qvec[src]
		m.bprods[si] = grow(&sc.prod, mat.Rows)
	}
	if err := mat.MatVecBatchInto(m.bprods[:len(scs)], m.bvecs[:len(scs)]); err != nil {
		return err
	}
	for si, sc := range scs {
		out := m.dstBuf(sc, dst, mat.Rows)
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
			sc.vrf[dst] = nil // failed load leaves the register unreadable
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
