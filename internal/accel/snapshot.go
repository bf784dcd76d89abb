package accel

import (
	"fmt"

	"mlvfpga/internal/fp16"
)

// SnapshotStream returns a copy of a stream's architectural vector
// register file: one slice per register, nil for registers the stream
// never wrote. Only architectural state is captured — the quantization
// memos (qver/qvec) are derived caches that RestoreStream invalidates,
// and requantization is deterministic, so a restored stream's numerics
// are bit-identical to the original's.
func (m *Machine) SnapshotStream(stream int) ([][]fp16.Num, error) {
	if stream < 0 || stream >= len(m.streams) {
		return nil, fmt.Errorf("accel: stream %d out of range (%d)", stream, len(m.streams))
	}
	sc := m.streams[stream]
	regs := make([][]fp16.Num, m.cfg.VRegs)
	for i, v := range sc.vrf {
		if v != nil {
			regs[i] = append([]fp16.Num{}, v...)
		}
	}
	return regs, nil
}

// RestoreStream installs a snapshotted register file into a stream,
// growing the stream table if needed. Every register's version is bumped
// so the next mv_mul requantizes from the restored values instead of a
// stale memo; a nil entry leaves the register unwritten (reading it
// errors, exactly as before the snapshot).
func (m *Machine) RestoreStream(stream int, regs [][]fp16.Num) error {
	if stream < 0 {
		return fmt.Errorf("accel: stream %d out of range", stream)
	}
	if len(regs) != m.cfg.VRegs {
		return fmt.Errorf("accel: restore has %d registers, machine has %d", len(regs), m.cfg.VRegs)
	}
	m.ensureStreams(stream + 1)
	sc := m.streams[stream]
	for i, v := range regs {
		if v == nil {
			sc.vrf[i] = nil
		} else {
			buf := sc.vrf[i]
			if cap(buf) >= len(v) {
				buf = buf[:len(v)]
			} else {
				buf = make([]fp16.Num, len(v))
			}
			copy(buf, v)
			sc.vrf[i] = buf
		}
		// ver only ever runs ahead of qver, so a bump always invalidates.
		sc.ver[i]++
	}
	return nil
}
