package scaleout

import "mlvfpga/internal/isa"

// This file holds the two custom tools of §2.3:
//
//   - the scale-down transform / instruction-insertion tool, which builds
//     per-device programs for an n-FPGA deployment (each device keeps the
//     unmodified control path but 1/n of the data processing units and
//     1/n of every weight matrix's rows) and inserts the DRAM-mapped send/
//     receive instructions (BuildScaledGroup, group.go; the per-step
//     programs it stitches together are here);
//   - the instruction reordering tool, which moves the blocking receive as
//     late as dependencies allow (and the send as early as possible) so
//     the inter-FPGA transfer overlaps the next step's x-dependent
//     computation.

// scaledLSTMStep: as kernels.lstmStep but every gate is h/n long (the
// device's matrix rows) and the new own shard lands in r14. The step is
// scheduled x-first: every W*x product precedes the first U*h product, so
// the reordering tool can sink the blocking receive past the whole
// x-dependent prefix ("maximally overlap", §2.3).
// r0=x (full h), r1=h (full), r2=c (shard), r3..r6 bias shards.
func scaledLSTMStep() isa.Program {
	I := func(op isa.Opcode, d, s1, s2 uint8) isa.Instr {
		return isa.Instr{Op: op, Dst: d, Src1: s1, Src2: s2}
	}
	return isa.Program{
		// x-dependent prefix: all four W*x products.
		I(isa.OpMVMul, 7, 0, 0),  // Wi x -> h/n
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
		I(isa.OpVTanh, 10, 10, 0), // g
		I(isa.OpVVMul, 11, 8, 2),  // f*c
		I(isa.OpVVMul, 12, 7, 10), // i*g
		I(isa.OpVVAdd, 2, 11, 12), // c'
		I(isa.OpVTanh, 13, 2, 0),
		I(isa.OpVVMul, 14, 9, 13), // own shard of h'
	}
}

// scaledGRUStep: r12 holds the device's own shard of h across steps
// (needed for z .* h, which uses only local elements). Scheduled x-first,
// as for the LSTM.
func scaledGRUStep() isa.Program {
	const one = 0x3C00
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
		I(isa.OpVSigm, 8, 8, 0),  // r
		I(isa.OpMVMul, 10, 5, 1), // Un h
		I(isa.OpVVMul, 10, 8, 10),
		I(isa.OpVVAdd, 9, 9, 10),
		I(isa.OpVVAdd, 9, 9, 5),
		I(isa.OpVTanh, 9, 9, 0), // n
		{Op: isa.OpVRsub, Dst: 10, Src1: 7, Imm: one},
		I(isa.OpVVMul, 10, 10, 9),
		I(isa.OpVVMul, 11, 7, 12), // z .* h_own
		I(isa.OpVVAdd, 12, 10, 11),
	}
}

// OverlapMVMs measures, per steady-state timestep of a reordered program,
// how many matrix-vector products execute between the sync send and the
// blocking receive — the work that actually overlaps the inter-FPGA
// transfer. It validates the timing model's overlap-window assumption
// against the real instruction schedule.
func OverlapMVMs(p isa.Program, sendAddr, recvAddr uint32) []int {
	var out []int
	counting := false
	count := 0
	for _, ins := range p {
		switch {
		case ins.Op == isa.OpVWrite && ins.Imm == sendAddr:
			counting = true
			count = 0
		case ins.Op == isa.OpVRead && ins.Imm == recvAddr:
			if counting {
				out = append(out, count)
			}
			counting = false
		case counting && ins.Op == isa.OpMVMul:
			count++
		}
	}
	return out
}

// ReorderForOverlap is the §2.3 reordering tool: under the dependency
// constraints of isa.DependsOn it sinks blocking receive reads as late as
// possible and hoists sends as early as possible, so the inter-FPGA
// transfer overlaps the next timestep's input-dependent computation. The
// result is a dependency-preserving permutation of the input.
func ReorderForOverlap(p isa.Program, sendAddr, recvAddr uint32) isa.Program {
	out := append(isa.Program{}, p...)
	isRecv := func(i isa.Instr) bool { return i.Op == isa.OpVRead && i.Imm == recvAddr }
	isSend := func(i isa.Instr) bool { return i.Op == isa.OpVWrite && i.Imm == sendAddr }
	// canSwap reports whether adjacent a;b may become b;a. DRAM-ordering in
	// DependsOn is conservative for the trapped sync addresses: a sync
	// receive commutes with ordinary DRAM reads, and the paper's module
	// gives the trapped addresses no aliasing with real DRAM, so we relax
	// the DRAM edge when exactly one side is a sync access and the other
	// does not touch the sync module.
	canSwap := func(a, b isa.Instr) bool {
		if a.Op == isa.OpEndChain || b.Op == isa.OpEndChain {
			return false // the chain terminator is a scheduling barrier
		}
		syncA, syncB := isRecv(a) || isSend(a), isRecv(b) || isSend(b)
		if syncA && syncB {
			return false // keep send/receive order: the barrier protocol
		}
		if syncA != syncB {
			// Register dependences still bind.
			return !regDeps(a, b)
		}
		return !isa.DependsOn(a, b)
	}
	changed := true
	for pass := 0; changed && pass < len(out); pass++ {
		changed = false
		// Sink receives.
		for i := 0; i+1 < len(out); i++ {
			if isRecv(out[i]) && canSwap(out[i], out[i+1]) {
				out[i], out[i+1] = out[i+1], out[i]
				changed = true
			}
		}
		// Hoist sends.
		for i := len(out) - 1; i > 0; i-- {
			if isSend(out[i]) && canSwap(out[i-1], out[i]) {
				out[i-1], out[i] = out[i], out[i-1]
				changed = true
			}
		}
	}
	return out
}

// regDeps reports register-file dependences between two instructions
// (ignoring DRAM ordering).
func regDeps(a, b isa.Instr) bool {
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
	return inter(a.Writes(), b.Reads()) || inter(a.Reads(), b.Writes()) || inter(a.Writes(), b.Writes())
}
