// Package snapshot defines the wire format for ISA-level checkpoints of
// live accelerator state. A Slot captures everything one in-flight stream
// owns — its vector register file and its banked DRAM window — plus the
// stream program counter (the next timestep) and a kernel identity hash,
// which together are sufficient to resume the stream bit-identically on
// any machine built from the same kernel: matrix tiles are machine-level
// state re-established idempotently by the kernel's SharedInit program,
// and quantization memos are derived caches that the restore path
// invalidates so they are recomputed deterministically.
//
// The encoding is a versioned little-endian payload sealed by
// internal/frame (magic, length, FNV-64a checksum), so a truncated or
// corrupted checkpoint is detected before any state is installed.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mlvfpga/internal/frame"
)

// Magic identifies a serialized snapshot blob.
const Magic = "MLVSNAP2"

// FormatVersion is bumped whenever the payload layout changes; Decode
// rejects snapshots written by a different version.
const FormatVersion = 1

// ErrVersion rejects a payload written under another FormatVersion. Framing
// damage surfaces as internal/frame's errors; a payload that ends early or
// carries extra bytes is frame.ErrTruncated.
var ErrVersion = errors.New("snapshot: unsupported format version")

// Slot is one stream's checkpoint: the architectural state a preempted
// or migrated stream needs to resume exactly where it stopped.
type Slot struct {
	// KernelHash identifies the kernel contract the state depends on
	// (cell kind, shapes, quantization parameters). Restore onto a kernel
	// with a different hash is refused — the register layout or numerics
	// would differ.
	KernelHash uint64
	// Tau is the stream program counter: the next timestep to execute.
	Tau uint32
	// Steps is the stream's total timestep count.
	Steps uint32
	// Regs is the vector register file as raw float16 bits; a nil entry
	// is a register the stream never wrote (reading it is still an error
	// after restore, exactly as before the checkpoint).
	Regs [][]uint16
	// Window is the stream's banked DRAM window — the contiguous
	// [base, base+stride) range holding its inputs and outputs-so-far.
	Window []uint16
}

// Bytes returns the size of the slot's encoded payload in bytes (Encode
// adds frame.Overhead), used for accounting snapshot volume.
func (s *Slot) Bytes() int {
	n := 2 + 8 + 4 + 4 + 2
	for _, r := range s.Regs {
		n++
		if r != nil {
			n += 4 + 2*len(r)
		}
	}
	return n + 4 + 2*len(s.Window)
}

// Encode serializes the slot into a sealed blob.
func (s *Slot) Encode() []byte { return frame.Seal(Magic, s.encode()) }

func (s *Slot) encode() []byte {
	b := make([]byte, 0, s.Bytes())
	b = binary.LittleEndian.AppendUint16(b, FormatVersion)
	b = binary.LittleEndian.AppendUint64(b, s.KernelHash)
	b = binary.LittleEndian.AppendUint32(b, s.Tau)
	b = binary.LittleEndian.AppendUint32(b, s.Steps)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s.Regs)))
	for _, r := range s.Regs {
		if r == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r)))
		for _, v := range r {
			b = binary.LittleEndian.AppendUint16(b, v)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Window)))
	for _, v := range s.Window {
		b = binary.LittleEndian.AppendUint16(b, v)
	}
	return b
}

// Decode parses an encoded slot, verifying magic, framing, format
// version and checksum before returning any state.
func Decode(blob []byte) (*Slot, error) {
	payload, err := frame.Open(Magic, blob)
	if err != nil {
		return nil, err
	}
	return decodePayload(payload)
}

func decodePayload(b []byte) (*Slot, error) {
	r := reader{b: b}
	ver := r.u16()
	if r.err == nil && ver != FormatVersion {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrVersion, ver, FormatVersion)
	}
	s := &Slot{
		KernelHash: r.u64(),
		Tau:        r.u32(),
		Steps:      r.u32(),
	}
	nregs := int(r.u16())
	if r.err == nil && nregs > len(r.b) {
		// Every register costs at least its presence byte: refuse before
		// sizing the file from a count the payload cannot back.
		r.err = frame.ErrTruncated
	}
	if r.err == nil {
		s.Regs = make([][]uint16, nregs)
		for i := 0; i < nregs && r.err == nil; i++ {
			switch present := r.u8(); present {
			case 0:
			case 1:
				s.Regs[i] = r.words(int(r.u32()))
			default:
				return nil, fmt.Errorf("snapshot: register %d presence byte %d", i, present)
			}
		}
	}
	s.Window = r.words(int(r.u32()))
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", frame.ErrTruncated, len(r.b))
	}
	return s, nil
}

// reader is a little-endian payload cursor; the first short read poisons
// it so decodePayload can check err once at the end.
type reader struct {
	b   []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b) < n {
		r.err = frame.ErrTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) words(n int) []uint16 {
	b := r.take(2 * n)
	if b == nil {
		return nil
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return out
}
