// Package isa defines the application-specific ISA of the BrainWave-like
// accelerator used as the paper's case study (§3). Like the original [18],
// it is a vector ISA for low-latency DNN inference: logical vector and
// matrix registers, a matrix-vector multiply executed in block floating
// point on the tile engines, and float16 point-wise/activation operations
// on the multi-function units. Reads and writes to the on-board DRAM move
// vectors in and out — the scale-out optimization (§2.3) reuses exactly
// these instructions for inter-FPGA communication.
//
// Instructions encode to a fixed 8-byte wire format, giving compact code
// that fits the on-chip instruction buffer (§4.4).
package isa

import (
	"errors"
	"fmt"
	"strings"
)

// Opcode identifies an instruction.
type Opcode uint8

// The instruction set.
const (
	// OpVRead loads a vector register from DRAM: v_rd dst, imm(addr).
	OpVRead Opcode = iota + 1
	// OpVWrite stores a vector register to DRAM: v_wr src, imm(addr).
	OpVWrite
	// OpMRead loads a matrix register from DRAM: m_rd dst, imm(addr).
	// The matrix shape is configured per-register ahead of time.
	OpMRead
	// OpMVMul multiplies a matrix register by a vector register in block
	// floating point: mv_mul dst, msrc, vsrc.
	OpMVMul
	// OpVVAdd adds two vectors element-wise in float16.
	OpVVAdd
	// OpVVSub subtracts element-wise in float16.
	OpVVSub
	// OpVVMul multiplies element-wise (Hadamard) in float16.
	OpVVMul
	// OpVSigm applies the logistic sigmoid element-wise.
	OpVSigm
	// OpVTanh applies tanh element-wise.
	OpVTanh
	// OpVRelu applies max(0, x) element-wise.
	OpVRelu
	// OpVPass copies a vector register.
	OpVPass
	// OpVConst fills a vector register with a float16 constant (imm holds
	// the 16-bit pattern).
	OpVConst
	// OpVRsub computes imm - x element-wise (used for 1-z in GRU).
	OpVRsub
	// OpEndChain terminates an instruction chain (one inference).
	OpEndChain
	// OpVExp applies e^x element-wise (the attention cell's unnormalized
	// key weighting; like sigmoid/tanh it is an MFU lookup table).
	OpVExp
	// OpVRecip applies 1/x element-wise (the attention cell's
	// normalization, replacing a divide the MFUs do not have).
	OpVRecip

	// NumOpcodes bounds the opcode space: every defined opcode is below
	// it, so a [NumOpcodes] array indexes by opcode.
	NumOpcodes
)

var opNames = map[Opcode]string{
	OpVRead:    "v_rd",
	OpVWrite:   "v_wr",
	OpMRead:    "m_rd",
	OpMVMul:    "mv_mul",
	OpVVAdd:    "vv_add",
	OpVVSub:    "vv_sub",
	OpVVMul:    "vv_mul",
	OpVSigm:    "v_sigm",
	OpVTanh:    "v_tanh",
	OpVRelu:    "v_relu",
	OpVPass:    "v_pass",
	OpVConst:   "v_const",
	OpVRsub:    "v_rsub",
	OpEndChain: "end_chain",
	OpVExp:     "v_exp",
	OpVRecip:   "v_recip",
}

var opByName = func() map[string]Opcode {
	m := map[string]Opcode{}
	for op, n := range opNames {
		m[n] = op
	}
	return m
}()

// String returns the mnemonic.
func (op Opcode) String() string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether the opcode is defined.
func (op Opcode) Valid() bool { _, ok := opNames[op]; return ok }

// Instr is one decoded instruction. Operand meaning depends on the opcode:
//
//	v_rd   Dst=vreg              Imm=dram word address
//	       Src2=length mode (0 = full vector, 1 = half, 2 = quarter;
//	       scaled-down accelerators operate on 1/n shards, §2.3)
//	v_wr   Src1=vreg             Imm=dram word address
//	m_rd   Dst=mreg              Imm=dram word address
//	mv_mul Dst=vreg Src1=mreg Src2=vreg
//	vv_*   Dst=vreg Src1=vreg Src2=vreg
//	v_*    Dst=vreg Src1=vreg
//	v_const Dst=vreg             Imm=float16 bits
//	v_rsub Dst=vreg Src1=vreg    Imm=float16 bits
type Instr struct {
	Op   Opcode
	Dst  uint8
	Src1 uint8
	Src2 uint8
	Imm  uint32
}

// InstrBytes is the fixed wire size of one instruction.
const InstrBytes = 8

// Encode serializes the instruction into its 8-byte wire format.
func (i Instr) Encode() [InstrBytes]byte {
	return [InstrBytes]byte{
		byte(i.Op), i.Dst, i.Src1, i.Src2,
		byte(i.Imm), byte(i.Imm >> 8), byte(i.Imm >> 16), byte(i.Imm >> 24),
	}
}

// ErrBadEncoding is returned when decoding an invalid instruction word.
var ErrBadEncoding = errors.New("isa: bad instruction encoding")

// Decode parses an 8-byte instruction word.
func Decode(b [InstrBytes]byte) (Instr, error) {
	i := Instr{
		Op:   Opcode(b[0]),
		Dst:  b[1],
		Src1: b[2],
		Src2: b[3],
		Imm:  uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24,
	}
	if !i.Op.Valid() {
		return Instr{}, fmt.Errorf("%w: opcode %d", ErrBadEncoding, b[0])
	}
	return i, nil
}

// String renders the instruction in assembly syntax.
func (i Instr) String() string {
	switch i.Op {
	case OpVRead, OpMRead:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Dst, i.Imm)
	case OpVWrite:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Src1, i.Imm)
	case OpMVMul, OpVVAdd, OpVVSub, OpVVMul:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Dst, i.Src1, i.Src2)
	case OpVSigm, OpVTanh, OpVRelu, OpVPass, OpVExp, OpVRecip:
		return fmt.Sprintf("%s r%d, r%d", i.Op, i.Dst, i.Src1)
	case OpVConst:
		return fmt.Sprintf("%s r%d, %#04x", i.Op, i.Dst, i.Imm)
	case OpVRsub:
		return fmt.Sprintf("%s r%d, r%d, %#04x", i.Op, i.Dst, i.Src1, i.Imm)
	case OpEndChain:
		return i.Op.String()
	}
	return fmt.Sprintf("%s r%d, r%d, r%d, %d", i.Op, i.Dst, i.Src1, i.Src2, i.Imm)
}

// Program is an instruction sequence.
type Program []Instr

// EncodeProgram serializes a program.
func EncodeProgram(p Program) []byte {
	out := make([]byte, 0, len(p)*InstrBytes)
	for _, i := range p {
		w := i.Encode()
		out = append(out, w[:]...)
	}
	return out
}

// DecodeProgram parses a serialized program.
func DecodeProgram(data []byte) (Program, error) {
	if len(data)%InstrBytes != 0 {
		return nil, fmt.Errorf("%w: %d bytes is not a multiple of %d", ErrBadEncoding, len(data), InstrBytes)
	}
	p := make(Program, 0, len(data)/InstrBytes)
	for off := 0; off < len(data); off += InstrBytes {
		var w [InstrBytes]byte
		copy(w[:], data[off:off+InstrBytes])
		i, err := Decode(w)
		if err != nil {
			return nil, fmt.Errorf("at offset %d: %w", off, err)
		}
		p = append(p, i)
	}
	return p, nil
}

// Bytes returns the machine-code size of the program, the quantity checked
// against the instruction buffer capacity (§4.4).
func (p Program) Bytes() int { return len(p) * InstrBytes }

// Disassemble renders the program as assembly text.
func (p Program) Disassemble() string {
	var sb strings.Builder
	for _, i := range p {
		sb.WriteString(i.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Reads lists the registers the instruction reads. Vector registers are
// returned as-is; matrix register ids are offset by MRegBase so the two
// files do not alias in dependency analysis.
func (i Instr) Reads() []int {
	switch i.Op {
	case OpVWrite:
		return []int{int(i.Src1)}
	case OpMVMul:
		return []int{MRegBase + int(i.Src1), int(i.Src2)}
	case OpVVAdd, OpVVSub, OpVVMul:
		return []int{int(i.Src1), int(i.Src2)}
	case OpVSigm, OpVTanh, OpVRelu, OpVPass, OpVRsub, OpVExp, OpVRecip:
		return []int{int(i.Src1)}
	}
	return nil
}

// MRegBase offsets matrix register ids in dependency analysis.
const MRegBase = 1000

// Writes lists the registers the instruction writes (same id space as
// Reads).
func (i Instr) Writes() []int {
	switch i.Op {
	case OpVRead, OpMVMul, OpVVAdd, OpVVSub, OpVVMul,
		OpVSigm, OpVTanh, OpVRelu, OpVPass, OpVConst, OpVRsub,
		OpVExp, OpVRecip:
		return []int{int(i.Dst)}
	case OpMRead:
		return []int{MRegBase + int(i.Dst)}
	}
	return nil
}

// TouchesDRAM reports whether the instruction accesses DRAM, and whether
// the access is a write.
func (i Instr) TouchesDRAM() (touches, isWrite bool) {
	switch i.Op {
	case OpVRead, OpMRead:
		return true, false
	case OpVWrite:
		return true, true
	}
	return false, false
}

// DependsOn reports whether instruction b must stay after instruction a
// (true data dependence, anti-dependence or output dependence, plus DRAM
// ordering: DRAM accesses to any address stay ordered when at least one is
// a write, since the sync template module gives addresses side effects).
func DependsOn(a, b Instr) bool {
	aw, bw := a.Writes(), b.Writes()
	ar, br := a.Reads(), b.Reads()
	inter := func(x, y []int) bool {
		for _, i := range x {
			for _, j := range y {
				if i == j {
					return true
				}
			}
		}
		return false
	}
	if inter(aw, br) || inter(ar, bw) || inter(aw, bw) {
		return true
	}
	at, awr := a.TouchesDRAM()
	bt, bwr := b.TouchesDRAM()
	if at && bt && (awr || bwr) {
		return true
	}
	return false
}
