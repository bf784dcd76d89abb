package artifactstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"mlvfpga/internal/frame"
)

// Blob files are frame.Seal(blobMagic, payload); internal/frame documents the
// layout. Any change to a codec's wire format bumps the magic's trailing
// digits. Writes go through a temp file plus rename, so a reader never
// observes a half-written blob — only complete blobs or blobs damaged at
// rest, which the checksum catches.

// blobMagic names the artifact payload format and its version.
const blobMagic = "MLVART01"

// blobExt is the on-disk file suffix for stored artifacts.
const blobExt = ".mlva"

// ErrCorrupt marks a blob rejected by framing or checksum validation. The
// store treats it as a miss: the bad file is dropped and the artifact is
// recomputed and rewritten.
var ErrCorrupt = errors.New("artifactstore: corrupt blob")

// blobSize is the on-disk footprint of a payload.
func blobSize(payloadLen int) int64 { return int64(frame.Overhead + payloadLen) }

// readBlob loads and validates one blob file. A missing file returns the
// underlying fs.ErrNotExist; a damaged one returns ErrCorrupt.
func readBlob(path string) ([]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := frame.Open(blobMagic, buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return payload, nil
}

// writeBlob atomically persists a framed payload: temp file in the same
// directory, fsync-free write, rename into place.
func writeBlob(path string, payload []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(frame.Seal(blobMagic, payload)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
