package kernels

import (
	"fmt"
	"hash/fnv"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/bfp"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/snapshot"
)

// StateHash identifies the architectural contract a slot snapshot
// depends on: the cell kind and shapes fix the register-file layout and
// DRAM window geometry, and the quantization parameters fix the
// numerics. Two kernels with equal hashes restore each other's
// snapshots bit-identically — NumTiles and DRAM capacity are deliberately
// excluded, since they are capacity knobs that do not change a stream's
// results, which is what lets a checkpoint move to a different
// placement depth.
func (k *Kernel) StateHash() uint64 {
	mant := k.Cfg.MantissaBits
	if mant == 0 {
		mant = bfp.DefaultMantissaBits
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "mlvfpga/snapshot/v1|%s|h=%d|t=%d|nd=%d|vr=%d|vl=%d|mb=%d",
		k.Spec.Kind, k.Spec.Hidden, k.Spec.TimeSteps,
		k.Cfg.NativeDim, k.Cfg.VRegs, k.Cfg.VecLen, mant)
	return h.Sum64()
}

// SnapshotSlot captures slot's live stream state: the vector register
// file (biases and recurrent state) and the slot's banked DRAM window
// (inputs plus outputs written so far), tagged with the stream program
// counter tau (the next timestep to run) and the kernel identity hash.
// Matrix tiles are machine-level state excluded by design: SharedInit
// re-establishes them idempotently on any machine built from this
// kernel.
func (k *Kernel) SnapshotSlot(m *accel.Machine, slot, tau, steps int) (*snapshot.Slot, error) {
	if slot < 0 {
		return nil, fmt.Errorf("kernels: snapshot slot %d", slot)
	}
	regs, err := m.SnapshotStream(slot)
	if err != nil {
		return nil, err
	}
	stride := k.StreamStride()
	words := make([]fp16.Num, stride)
	if err := m.DRAMPort().ReadWordsInto(words, k.WindowBase()+slot*stride); err != nil {
		return nil, err
	}
	s := &snapshot.Slot{
		KernelHash: k.StateHash(),
		Tau:        uint32(tau),
		Steps:      uint32(steps),
		Regs:       make([][]uint16, len(regs)),
		Window:     make([]uint16, len(words)),
	}
	for i, r := range regs {
		if r == nil {
			continue
		}
		u := make([]uint16, len(r))
		for j, v := range r {
			u[j] = uint16(v)
		}
		s.Regs[i] = u
	}
	for i, w := range words {
		s.Window[i] = uint16(w)
	}
	return s, nil
}

// RestoreSlot installs a snapshot into slot on m — any machine built
// from a kernel with the same StateHash, including one backing a
// different placement depth. The DRAM window is written first (the
// write-tracking port invalidates any overlapping cached tile), then
// the register file; the caller resumes the stream by running Step
// under SlotOffset(slot, tau).
func (k *Kernel) RestoreSlot(m *accel.Machine, slot int, snap *snapshot.Slot) error {
	if snap.KernelHash != k.StateHash() {
		return fmt.Errorf("kernels: snapshot kernel hash %016x does not match kernel %016x (%s)",
			snap.KernelHash, k.StateHash(), k.Spec)
	}
	stride := k.StreamStride()
	if len(snap.Window) != stride {
		return fmt.Errorf("kernels: snapshot window %d words, kernel stride %d", len(snap.Window), stride)
	}
	if slot < 0 {
		return fmt.Errorf("kernels: restore slot %d", slot)
	}
	words := make([]fp16.Num, stride)
	for i, w := range snap.Window {
		words[i] = fp16.Num(w)
	}
	if err := m.DRAMPort().WriteWords(k.WindowBase()+slot*stride, words); err != nil {
		return err
	}
	regs := make([][]fp16.Num, len(snap.Regs))
	for i, r := range snap.Regs {
		if r == nil {
			continue
		}
		v := make([]fp16.Num, len(r))
		for j, u := range r {
			v[j] = fp16.Num(u)
		}
		regs[i] = v
	}
	return m.RestoreStream(slot, regs)
}
