package frame

import (
	"bytes"
	"errors"
	"testing"
)

const testMagic = "MLVTEST1"

func TestRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("the artifact payload")} {
		got, err := Open(testMagic, Seal(testMagic, payload))
		if err != nil {
			t.Fatalf("Open(Seal(%q)): %v", payload, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload %q, want %q", got, payload)
		}
	}
}

func TestOpenRejectsDamage(t *testing.T) {
	buf := Seal(testMagic, []byte("some bytes worth caching"))
	flipped := append([]byte{}, buf...)
	flipped[Overhead+2] ^= 0x40
	cases := map[string]struct {
		blob []byte
		want error
	}{
		"empty":     {nil, ErrTruncated},
		"short":     {buf[:Overhead-1], ErrTruncated},
		"truncated": {buf[:len(buf)-3], ErrLength},
		"trailing":  {append(append([]byte{}, buf...), 0), ErrLength},
		"badmagic":  {append([]byte("XXVTEST1"), buf[8:]...), ErrBadMagic},
		"bitflip":   {flipped, ErrChecksum},
	}
	for name, c := range cases {
		if _, err := Open(testMagic, c.blob); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
	}
}

// TestOpensParentArtifactBlob pins the layout against bytes written by the
// artifact store before it shared this package: a -cache-dir populated by
// an older binary must keep serving hits.
func TestOpensParentArtifactBlob(t *testing.T) {
	blob := []byte{
		'M', 'L', 'V', 'A', 'R', 'T', '0', '1',
		0x07, 0, 0, 0, 0, 0, 0, 0,
		0xa0, 0x66, 0x16, 0x4a, 0x73, 0xd1, 0x85, 0x0c,
		'{', '"', 'n', '"', ':', '1', '}',
	}
	payload, err := Open("MLVART01", blob)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if string(payload) != `{"n":1}` {
		t.Fatalf("payload %q", payload)
	}
	if got := Seal("MLVART01", payload); !bytes.Equal(got, blob) {
		t.Fatalf("Seal wrote % x, want % x", got, blob)
	}
}

// FuzzOpen: Open never panics on arbitrary bytes, a sealed payload opens
// to itself, and flipping any one byte of a sealed blob is detected.
func FuzzOpen(f *testing.F) {
	f.Add([]byte(nil), uint(0))
	f.Add([]byte("payload"), uint(3))
	f.Add(Seal(testMagic, []byte("already framed")), uint(17))
	f.Fuzz(func(t *testing.T, data []byte, at uint) {
		if payload, err := Open(testMagic, data); err == nil && !bytes.Equal(Seal(testMagic, payload), data) {
			t.Fatalf("accepted blob % x does not re-seal to itself", data)
		}
		blob := Seal(testMagic, data)
		got, err := Open(testMagic, blob)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Open(Seal(% x)) = % x, %v", data, got, err)
		}
		blob[at%uint(len(blob))] ^= 1 << (at % 8)
		if _, err := Open(testMagic, blob); err == nil {
			t.Fatalf("flip at byte %d of % x went undetected", at%uint(len(blob)), blob)
		}
	})
}
