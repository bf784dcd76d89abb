package snapshot

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"mlvfpga/internal/frame"
)

func sample() *Slot {
	return &Slot{
		KernelHash: 0xdeadbeefcafef00d,
		Tau:        7,
		Steps:      25,
		Regs: [][]uint16{
			{1, 2, 3},
			nil,
			{0xffff, 0, 0x8000, 42},
			nil,
		},
		Window: []uint16{9, 8, 7, 6, 5},
	}
}

func TestRoundTrip(t *testing.T) {
	s := sample()
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, s)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	s := &Slot{KernelHash: 1, Regs: [][]uint16{nil, nil}, Window: []uint16{}}
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.KernelHash != 1 || len(got.Regs) != 2 || got.Regs[0] != nil || len(got.Window) != 0 {
		t.Fatalf("empty round trip: %#v", got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	blob := sample().Encode()
	for i := range blob {
		mut := append([]byte{}, blob...)
		mut[i] ^= 0x5a
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	blob := sample().Encode()
	for n := 0; n < len(blob); n++ {
		if _, err := Decode(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	blob := sample().Encode()
	blob[0] = 'X'
	if _, err := Decode(blob); !errors.Is(err, frame.ErrBadMagic) {
		t.Fatalf("err = %v, want frame.ErrBadMagic", err)
	}
}

func TestDecodeRejectsFutureVersion(t *testing.T) {
	payload := sample().encode()
	payload[0] = FormatVersion + 1 // little-endian version low byte
	if _, err := Decode(frame.Seal(Magic, payload)); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// TestDecodeRejectsTrailingBytes: nothing may follow the checksummed
// payload, and the payload may not outrun its last field.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	if _, err := Decode(append(sample().Encode(), 0)); !errors.Is(err, frame.ErrLength) {
		t.Fatalf("byte after the frame: err = %v, want frame.ErrLength", err)
	}
	if _, err := Decode(frame.Seal(Magic, append(sample().encode(), 0))); !errors.Is(err, frame.ErrTruncated) {
		t.Fatalf("byte after the window: err = %v, want frame.ErrTruncated", err)
	}
}

// TestBytesMatchesEncodedPayload: Bytes is the payload size worked out
// arithmetically — what Encode produces minus the frame — and measuring a
// slot allocates nothing.
func TestBytesMatchesEncodedPayload(t *testing.T) {
	for name, s := range map[string]*Slot{
		"full":     sample(),
		"nil-regs": {KernelHash: 1, Regs: [][]uint16{nil, nil, nil}},
		"empty":    {},
	} {
		if got, want := s.Bytes(), len(s.Encode())-frame.Overhead; got != want {
			t.Errorf("%s: Bytes() = %d, want %d", name, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = s.Bytes() }); allocs != 0 {
			t.Errorf("%s: Bytes() allocates %v times", name, allocs)
		}
	}
}

// FuzzDecodeSnapshot: Decode never panics on arbitrary bytes, never
// allocates more than a constant factor of the blob it was handed (a
// forged count cannot size a buffer), and whatever it accepts re-encodes
// to the same bytes. The second argument re-seals the input as a payload
// so the fuzzer reaches decodePayload without having to guess a checksum.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(sample().Encode(), false)
	f.Add(sample().encode(), true)
	f.Add((&Slot{}).encode(), true)
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		blob := data
		if seal {
			blob = frame.Seal(Magic, data)
		}
		// TotalAlloc is process-wide, and under -fuzz the engine's own
		// goroutines allocate beside Decode. Decode is deterministic and
		// that noise only adds, so the input fails only when each of three
		// readings exceeds the limit.
		var s *Slot
		var err error
		limit, least := uint64(32*len(blob)+4096), uint64(math.MaxUint64)
		for i := 0; i < 3 && least > limit; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err = Decode(blob)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > limit {
			t.Fatalf("Decode of %d bytes allocated at least %d in each of 3 readings (limit %d)", len(blob), least, limit)
		}
		if err == nil && !bytes.Equal(s.Encode(), blob) {
			t.Fatalf("accepted blob % x re-encodes to % x", blob, s.Encode())
		}
	})
}
