// Package frame is the repository's one blob framing: the artifact store's
// on-disk files and the data plane's in-memory slot checkpoints both seal
// their payload with it, so a truncated or damaged blob is detected before
// any of it is decoded.
//
// Layout, all integers little-endian:
//
//	offset  size  field
//	0       8     magic + format version (e.g. "MLVART01")
//	8       8     payload length in bytes
//	16      8     FNV-64a checksum of the payload
//	24      n     payload
//
// Nothing follows the payload. The magic doubles as the version: a change to
// the framing or to a payload's wire format bumps its trailing digits, so a
// new binary treats old blobs as foreign rather than corrupt.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
)

// Overhead is the fixed prefix before the payload.
const Overhead = 8 + 8 + 8

// Why Open refused a blob.
var (
	ErrTruncated = errors.New("frame: blob shorter than its header")
	ErrBadMagic  = errors.New("frame: bad magic")
	ErrLength    = errors.New("frame: payload length differs from header")
	ErrChecksum  = errors.New("frame: checksum mismatch")
)

func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// Seal frames a payload under an 8-byte magic.
func Seal(magic string, payload []byte) []byte {
	buf := make([]byte, Overhead+len(payload))
	copy(buf, magic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(buf[16:], checksum(payload))
	copy(buf[Overhead:], payload)
	return buf
}

// Open validates magic, length and checksum and returns the payload (a
// sub-slice of blob).
func Open(magic string, blob []byte) ([]byte, error) {
	if len(blob) < Overhead {
		return nil, ErrTruncated
	}
	if string(blob[:8]) != magic {
		return nil, ErrBadMagic
	}
	payload := blob[Overhead:]
	if binary.LittleEndian.Uint64(blob[8:]) != uint64(len(payload)) {
		return nil, ErrLength
	}
	if binary.LittleEndian.Uint64(blob[16:]) != checksum(payload) {
		return nil, ErrChecksum
	}
	return payload, nil
}
