package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ins := Instr{Op: OpMVMul, Dst: 3, Src1: 7, Src2: 12, Imm: 0xDEADBEEF}
	got, err := Decode(ins.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != ins {
		t.Errorf("round trip = %+v, want %+v", got, ins)
	}
}

func TestDecodeRejectsBadOpcode(t *testing.T) {
	var w [InstrBytes]byte
	w[0] = 0
	if _, err := Decode(w); err == nil {
		t.Error("opcode 0 must be invalid")
	}
	w[0] = byte(NumOpcodes)
	if _, err := Decode(w); err == nil {
		t.Error("opcode past range must be invalid")
	}
}

func TestProgramRoundTrip(t *testing.T) {
	p := Program{
		{Op: OpMRead, Dst: 0, Imm: 4096},
		{Op: OpVRead, Dst: 1, Imm: 0},
		{Op: OpMVMul, Dst: 2, Src1: 0, Src2: 1},
		{Op: OpVSigm, Dst: 3, Src1: 2},
		{Op: OpVWrite, Src1: 3, Imm: 128},
		{Op: OpEndChain},
	}
	data := EncodeProgram(p)
	if len(data) != p.Bytes() {
		t.Errorf("Bytes = %d, len = %d", p.Bytes(), len(data))
	}
	back, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(p) {
		t.Fatalf("decoded %d instrs, want %d", len(back), len(p))
	}
	for i := range p {
		if back[i] != p[i] {
			t.Errorf("instr %d = %+v, want %+v", i, back[i], p[i])
		}
	}
	if _, err := DecodeProgram(data[:5]); err == nil {
		t.Error("truncated program must error")
	}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	src := `
		# load weights and input
		m_rd r0, 4096
		v_rd r1, 0      ; input x
		mv_mul r2, r0, r1
		vv_add r3, r2, r1
		vv_sub r4, r3, r1
		vv_mul r5, r4, r4
		v_sigm r6, r5
		v_tanh r7, r6
		v_relu r8, r7
		v_pass r9, r8
		v_const r10, 0x3c00
		v_rsub r11, r9, 0x3c00
		v_wr r11, 128
		end_chain
	`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 14 {
		t.Fatalf("assembled %d instrs, want 14", len(p))
	}
	// Disassemble and re-assemble: must be identical.
	p2, err := Assemble(p.Disassemble())
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, p.Disassemble())
	}
	for i := range p {
		if p[i] != p2[i] {
			t.Errorf("instr %d differs: %v vs %v", i, p[i], p2[i])
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r0, r1",
		"mv_mul r0, r1",           // wrong arity
		"v_rd x0, 5",              // bad register
		"v_rd r300, 5",            // register out of range
		"v_rd r0, notanum",        // bad immediate
		"end_chain r0",            // extra operand
		"mv_mul r0, r1, 5",        // immediate where register expected
		"v_const r0, 99999999999", // immediate overflow
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestReadsWrites(t *testing.T) {
	mv := Instr{Op: OpMVMul, Dst: 2, Src1: 0, Src2: 1}
	r := mv.Reads()
	if len(r) != 2 || r[0] != MRegBase+0 || r[1] != 1 {
		t.Errorf("mv_mul reads = %v", r)
	}
	w := mv.Writes()
	if len(w) != 1 || w[0] != 2 {
		t.Errorf("mv_mul writes = %v", w)
	}
	vw := Instr{Op: OpVWrite, Src1: 3, Imm: 100}
	if len(vw.Writes()) != 0 || len(vw.Reads()) != 1 {
		t.Errorf("v_wr deps wrong: %v / %v", vw.Reads(), vw.Writes())
	}
	if touches, isWrite := vw.TouchesDRAM(); !touches || !isWrite {
		t.Error("v_wr must touch DRAM as a write")
	}
	if touches, isWrite := mv.TouchesDRAM(); touches || isWrite {
		t.Error("mv_mul must not touch DRAM")
	}
}

func TestDependsOn(t *testing.T) {
	load := Instr{Op: OpVRead, Dst: 1, Imm: 0}
	use := Instr{Op: OpVSigm, Dst: 2, Src1: 1}
	indep := Instr{Op: OpVSigm, Dst: 4, Src1: 3}
	if !DependsOn(load, use) {
		t.Error("RAW dependence missed")
	}
	if DependsOn(load, indep) {
		t.Error("false dependence")
	}
	// WAR: use reads r1, overwrite writes r1.
	overwrite := Instr{Op: OpVConst, Dst: 1, Imm: 0}
	if !DependsOn(use, overwrite) {
		t.Error("WAR dependence missed")
	}
	// WAW.
	if !DependsOn(load, Instr{Op: OpVRead, Dst: 1, Imm: 64}) {
		t.Error("WAW dependence missed")
	}
	// DRAM ordering: read then write stays ordered.
	dramWr := Instr{Op: OpVWrite, Src1: 9, Imm: 500}
	dramRd := Instr{Op: OpVRead, Dst: 8, Imm: 600}
	if !DependsOn(dramRd, dramWr) || !DependsOn(dramWr, dramRd) {
		t.Error("DRAM write ordering missed")
	}
	// Two DRAM reads may reorder.
	if DependsOn(dramRd, Instr{Op: OpVRead, Dst: 7, Imm: 700}) {
		t.Error("two DRAM reads must be independent")
	}
	// Matrix and vector register files do not alias.
	mrd := Instr{Op: OpMRead, Dst: 1, Imm: 0}
	vuse := Instr{Op: OpVSigm, Dst: 5, Src1: 1}
	if DependsOn(mrd, vuse) {
		t.Error("m1 and v1 must not alias")
	}
}

// Property: every valid instruction survives encode/decode.
func TestQuickEncodeDecode(t *testing.T) {
	f := func(op, dst, s1, s2 uint8, im uint32) bool {
		o := Opcode(op%uint8(NumOpcodes-1)) + 1
		ins := Instr{Op: o, Dst: dst, Src1: s1, Src2: s2, Imm: im}
		got, err := Decode(ins.Encode())
		return err == nil && got == ins
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: disassembly of a random program reassembles identically.
func TestQuickAsmRoundTrip(t *testing.T) {
	f := func(ops []uint8) bool {
		var p Program
		for _, b := range ops {
			o := Opcode(b%uint8(NumOpcodes-1)) + 1
			p = append(p, Instr{Op: o, Dst: b % 16, Src1: (b + 1) % 16, Src2: (b + 2) % 16, Imm: uint32(b) * 3})
		}
		// Normalize: String omits fields an opcode does not use, so zero
		// them first the same way assembly would produce them.
		for i := range p {
			p[i] = normalize(p[i])
		}
		back, err := Assemble(p.Disassemble())
		if err != nil {
			return false
		}
		for i := range p {
			if back[i] != p[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func normalize(i Instr) Instr {
	out := Instr{Op: i.Op}
	switch i.Op {
	case OpVRead, OpMRead:
		out.Dst, out.Imm = i.Dst, i.Imm
	case OpVWrite:
		out.Src1, out.Imm = i.Src1, i.Imm
	case OpMVMul, OpVVAdd, OpVVSub, OpVVMul:
		out.Dst, out.Src1, out.Src2 = i.Dst, i.Src1, i.Src2
	case OpVSigm, OpVTanh, OpVRelu, OpVPass:
		out.Dst, out.Src1 = i.Dst, i.Src1
	case OpVConst:
		out.Dst, out.Imm = i.Dst, i.Imm&0xFFFF
	case OpVRsub:
		out.Dst, out.Src1, out.Imm = i.Dst, i.Src1, i.Imm&0xFFFF
	}
	return out
}

func TestDisassembleContainsMnemonics(t *testing.T) {
	p := Program{{Op: OpEndChain}}
	if !strings.Contains(p.Disassemble(), "end_chain") {
		t.Error("disassembly missing mnemonic")
	}
}
