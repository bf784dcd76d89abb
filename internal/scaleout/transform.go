package scaleout

import (
	"mlvfpga/internal/isa"
	"mlvfpga/internal/kernels"
)

// This file holds the two custom tools of §2.3, both functions from program
// to program. The scale-down itself — each device keeps the unmodified
// control path but 1/n of the data processing units and 1/n of every weight
// matrix's rows — is kernels.BuildShard, the one program generator.
//
//   - InsertSync, the instruction-insertion tool, adds the DRAM-mapped
//     send/receive instructions to a scaled-down program;
//   - ReorderForOverlap, the instruction reordering tool, moves the blocking
//     receive as late as dependencies allow (and the send as early as
//     possible) so the inter-FPGA transfer overlaps the next step's
//     x-dependent computation.

// InsertSync is the §2.3 insertion tool. A scaled-down program's only DRAM
// writes are the per-step stores of the device's own rows of h_t; around
// each, the tool adds the trapped send of the same register before it
// (own shard to the peers) and the blocking receive of the full h_t from
// the sync module after it (the barrier), into the register the next step
// reads h from. Every other instruction stays in place.
func InsertSync(p isa.Program, cfg Config) isa.Program {
	out := make(isa.Program, 0, len(p))
	for _, ins := range p {
		if ins.Op != isa.OpVWrite {
			out = append(out, ins)
			continue
		}
		out = append(out,
			isa.Instr{Op: isa.OpVWrite, Src1: ins.Src1, Imm: uint32(cfg.SendAddr)},
			ins,
			isa.Instr{Op: isa.OpVRead, Dst: kernels.HiddenReg, Imm: uint32(cfg.RecvAddr)})
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
