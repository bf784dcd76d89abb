package accel

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mlvfpga/internal/fp16"
	"mlvfpga/internal/isa"
)

// New builds a machine with a fresh private DRAM.
func New(cfg Config) (*Machine, error) {
	return NewWithDRAM(cfg, nil)
}

func smallConfig() Config {
	return Config{
		Name: "test", NativeDim: 4, NumTiles: 1,
		VRegs: 16, MRegs: 4, VecLen: 4, DRAMWords: 4096,
		InstrBufBytes: 4096, MantissaBits: 9,
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.NativeDim = 0 },
		func(c *Config) { c.NumTiles = -1 },
		func(c *Config) { c.VRegs = 0 },
		func(c *Config) { c.MRegs = 300 },
		func(c *Config) { c.VecLen = 0 },
		func(c *Config) { c.DRAMWords = 0 },
	}
	for i, mod := range bads {
		c := smallConfig()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMemoryBounds(t *testing.T) {
	m := NewMemory(16)
	if _, err := readWords(m, 10, 10); !errors.Is(err, ErrDRAMRange) {
		t.Error("overflow read must fail")
	}
	if err := m.WriteWords(-1, make([]fp16.Num, 1)); !errors.Is(err, ErrDRAMRange) {
		t.Error("negative write must fail")
	}
	want := []fp16.Num{1, 2, 3}
	if err := m.WriteWords(4, want); err != nil {
		t.Fatal(err)
	}
	got, err := readWords(m, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d = %v", i, got[i])
		}
	}
}

func runProgram(t *testing.T, src string, setup func(*Machine)) *Machine {
	t.Helper()
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(m)
	}
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	return m
}

func writeVec(t *testing.T, m *Machine, addr int, xs []float64) {
	t.Helper()
	words := make([]fp16.Num, len(xs))
	fp16.FromSlice64Into(words, xs)
	if err := m.DRAMPort().WriteWords(addr, words); err != nil {
		t.Fatal(err)
	}
}

func readVecReg(t *testing.T, m *Machine, reg int) []float64 {
	t.Helper()
	v, err := m.readVectorStream(0, reg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(v))
	fp16.ToSlice64Into(out, v)
	return out
}

func TestVectorOps(t *testing.T) {
	m := runProgram(t, `
		v_rd r0, 0
		v_rd r1, 4
		vv_add r2, r0, r1
		vv_sub r3, r0, r1
		vv_mul r4, r0, r1
		v_pass r5, r4
		v_const r6, 0x4000
		v_rsub r7, r0, 0x3c00
		end_chain`,
		func(m *Machine) {
			writeVec(t, m, 0, []float64{1, 2, 3, 4})
			writeVec(t, m, 4, []float64{0.5, 0.5, -1, 2})
		})
	check := func(reg int, want []float64) {
		got := readVecReg(t, m, reg)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("r%d[%d] = %v, want %v", reg, i, got[i], want[i])
			}
		}
	}
	check(2, []float64{1.5, 2.5, 2, 6})
	check(3, []float64{0.5, 1.5, 4, 2})
	check(4, []float64{0.5, 1, -3, 8})
	check(5, []float64{0.5, 1, -3, 8})
	check(6, []float64{2, 2, 2, 2})
	check(7, []float64{0, -1, -2, -3})
}

func TestActivations(t *testing.T) {
	m := runProgram(t, `
		v_rd r0, 0
		v_sigm r1, r0
		v_tanh r2, r0
		v_relu r3, r0
		end_chain`,
		func(m *Machine) { writeVec(t, m, 0, []float64{0, -1, 1, -20}) })
	sig := readVecReg(t, m, 1)
	if sig[0] != 0.5 || sig[3] >= 0.001 {
		t.Errorf("sigmoid = %v", sig)
	}
	tanh := readVecReg(t, m, 2)
	if tanh[0] != 0 || math.Abs(tanh[2]-0.7616) > 0.001 {
		t.Errorf("tanh = %v", tanh)
	}
	relu := readVecReg(t, m, 3)
	if relu[1] != 0 || relu[2] != 1 || relu[3] != 0 {
		t.Errorf("relu = %v", relu)
	}
}

func TestMVMul(t *testing.T) {
	// 4x4 identity-ish matrix times vector.
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ConfigureMatrix(0, 4, 4); err != nil {
		t.Fatal(err)
	}
	mat := []float64{
		2, 0, 0, 0,
		0, 1, 0, 0,
		1, 1, 0, 0,
		0, 0, 0, -1,
	}
	writeVec(t, m, 0, mat)
	writeVec(t, m, 16, []float64{1, 2, 3, 4})
	p, _ := isa.Assemble(`
		m_rd r0, 0
		v_rd r1, 16
		mv_mul r2, r0, r1
		v_wr r2, 32
		end_chain`)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	got := readVecReg(t, m, 2)
	want := []float64{2, 2, 3, -4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.01 {
			t.Errorf("mv_mul[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Result also landed in DRAM.
	back, err := readWords(m.DRAMPort(), 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].Float64() != got[0] {
		t.Error("v_wr did not store the register")
	}
	st := m.Stats()
	if st.MACs != 16 {
		t.Errorf("MACs = %d, want 16", st.MACs)
	}
	if st.ByOp[isa.OpMVMul] != 1 {
		t.Errorf("op counts = %v", st.ByOp)
	}
}

func TestRunErrors(t *testing.T) {
	m, _ := New(smallConfig())
	cases := []string{
		"v_sigm r1, r0\nend_chain",     // read before write
		"v_rd r0, 999999\nend_chain",   // DRAM out of range
		"mv_mul r1, r0, r2\nend_chain", // matrix not loaded
		"m_rd r0, 0\nend_chain",        // matrix shape not configured
	}
	for _, src := range cases {
		p, err := isa.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(p); err == nil {
			t.Errorf("program %q must fail", src)
		}
	}
}

// TestUndefinedOpcodeIsAnError: Instr is a public struct, so a program built
// in Go can carry any opcode; one outside the ISA fails Run, it does not
// index past the per-opcode counts.
func TestUndefinedOpcodeIsAnError(t *testing.T) {
	m, _ := New(smallConfig())
	for _, op := range []isa.Opcode{0, isa.NumOpcodes, 200} {
		err := m.Run(isa.Program{{Op: op}})
		if err == nil || !strings.Contains(err.Error(), "unimplemented opcode") {
			t.Errorf("opcode %d: Run = %v, want unimplemented opcode", op, err)
		}
	}
}

func TestLengthMismatch(t *testing.T) {
	m, _ := New(smallConfig())
	m.ConfigureMatrix(0, 2, 2)
	writeVec(t, m, 0, []float64{1, 0, 0, 1})
	writeVec(t, m, 8, []float64{1, 2, 3, 4})
	p, _ := isa.Assemble(`
		m_rd r0, 0
		v_rd r1, 8
		mv_mul r2, r0, r1
		end_chain`)
	if err := m.Run(p); err == nil {
		t.Error("mv_mul with mismatched vector length must fail")
	}
}

func TestInstructionBufferLimit(t *testing.T) {
	cfg := smallConfig()
	cfg.InstrBufBytes = 16 // room for 2 instructions
	m, _ := New(cfg)
	p, _ := isa.Assemble("v_const r0, 0\nv_const r1, 0\nv_const r2, 0\nend_chain")
	if err := m.Run(p); !errors.Is(err, ErrProgramTooLarge) {
		t.Errorf("Run = %v, want ErrProgramTooLarge", err)
	}
}

func TestEndChainStopsExecution(t *testing.T) {
	m := runProgram(t, `
		v_const r0, 0x3c00
		end_chain
		v_const r0, 0x4000`, nil)
	if got := readVecReg(t, m, 0); got[0] != 1 {
		t.Errorf("instruction after end_chain executed: %v", got)
	}
	if m.Stats().Instructions != 2 {
		t.Errorf("executed %d instructions, want 2", m.Stats().Instructions)
	}
}

func TestConfigureMatrixErrors(t *testing.T) {
	m, _ := New(smallConfig())
	if err := m.ConfigureMatrix(99, 2, 2); err == nil {
		t.Error("register out of range")
	}
	if err := m.ConfigureMatrix(0, 0, 2); err == nil {
		t.Error("bad shape")
	}
}

func TestReadVectorErrors(t *testing.T) {
	m, _ := New(smallConfig())
	if _, err := m.readVectorStream(0, 99); err == nil {
		t.Error("register out of range")
	}
	if _, err := m.readVectorStream(0, 0); err == nil {
		t.Error("empty register")
	}
}

// readVectorStream returns a copy of a vector register in the given batch
// stream's register file.
func (m *Machine) readVectorStream(stream, reg int) ([]fp16.Num, error) {
	if stream < 0 || stream >= len(m.streams) {
		return nil, fmt.Errorf("accel: stream %d out of range (%d)", stream, len(m.streams))
	}
	if reg < 0 || reg >= m.cfg.VRegs {
		return nil, fmt.Errorf("accel: vector register %d out of range", reg)
	}
	sc := &m.streams[stream]
	if reg >= len(sc.regs) || !sc.regs[reg].set { // no regs: nothing written yet
		return nil, fmt.Errorf("accel: vector register %d is empty", reg)
	}
	return append([]fp16.Num{}, sc.regs[reg].val...), nil
}

// readWords reads n words at addr through the port's one read method.
func readWords(d DRAM, addr, n int) ([]fp16.Num, error) {
	out := make([]fp16.Num, n)
	return out, d.ReadWordsInto(out, addr)
}
