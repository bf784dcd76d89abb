package accel

import (
	"fmt"
	"slices"

	"mlvfpga/internal/fp16"
)

// SnapshotStream returns a copy of a stream's architectural vector
// register file: one slice per register, nil for registers the stream
// never wrote. Only architectural state is captured — the quantization
// memos are derived caches that RestoreStream invalidates, and
// requantization is deterministic, so a restored stream's numerics are
// bit-identical to the original's.
func (m *Machine) SnapshotStream(stream int) ([][]fp16.Num, error) {
	if stream < 0 || stream >= len(m.streams) {
		return nil, fmt.Errorf("accel: stream %d out of range (%d)", stream, len(m.streams))
	}
	regs := make([][]fp16.Num, m.cfg.VRegs)
	for i, r := range m.streams[stream].regs {
		if r.set {
			regs[i] = slices.Clone(r.val)
		}
	}
	return regs, nil
}

// RestoreStream installs a snapshotted register file into a stream,
// growing the stream table if needed, by copying each value into the
// stream's own storage. Every register's quantization memo is dropped, so
// the next mv_mul requantizes from the restored values; a nil entry leaves
// the register unwritten (reading it errors, exactly as before the
// snapshot).
func (m *Machine) RestoreStream(stream int, regs [][]fp16.Num) error {
	if stream < 0 {
		return fmt.Errorf("accel: stream %d out of range", stream)
	}
	if len(regs) != m.cfg.VRegs {
		return fmt.Errorf("accel: restore has %d registers, machine has %d", len(regs), m.cfg.VRegs)
	}
	m.ensureStreams(stream + 1)
	sc := &m.streams[stream]
	for i, v := range regs {
		if v != nil {
			copy(m.dstBuf(sc, i, len(v)), v)
		} else if sc.regs != nil {
			sc.regs[i].set = false
		}
	}
	return nil
}
