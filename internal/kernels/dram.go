package kernels

import (
	"fmt"
	"slices"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
)

// imageDRAM is the DRAM of a machine the kernel builds for itself. Its low
// words are the kernel's image — weights and biases, which no program
// writes — and every machine of the kernel reads the same copy; only the
// words above it (inputs, outputs, state: the stream windows) are the
// machine's own. A serving pool therefore holds the image once, not once
// per machine. A write that does reach into the image (a host updating
// weights in place) first takes a private copy.
type imageDRAM struct {
	image []fp16.Num // words [0, len(image)); shared until written
	owned bool       // image is this machine's private copy
	rest  []fp16.Num // words [len(image), size)
}

func newImageDRAM(image []fp16.Num, words int) (*imageDRAM, error) {
	if words < len(image) {
		return nil, fmt.Errorf("%w: %d-word image on a %d-word board", accel.ErrDRAMRange, len(image), words)
	}
	return &imageDRAM{image: image, rest: make([]fp16.Num, words-len(image))}, nil
}

func (d *imageDRAM) check(op string, addr, n int) error {
	if size := len(d.image) + len(d.rest); addr < 0 || n < 0 || addr+n > size {
		return fmt.Errorf("%w: %s [%d,%d) of %d", accel.ErrDRAMRange, op, addr, addr+n, size)
	}
	return nil
}

// ReadWordsInto copies len(dst) words starting at addr into dst.
func (d *imageDRAM) ReadWordsInto(dst []fp16.Num, addr int) error {
	if err := d.check("read", addr, len(dst)); err != nil {
		return err
	}
	n := 0
	if addr < len(d.image) {
		n = copy(dst, d.image[addr:])
	}
	if n < len(dst) {
		copy(dst[n:], d.rest[addr+n-len(d.image):])
	}
	return nil
}

// WriteWords stores vals starting at addr.
func (d *imageDRAM) WriteWords(addr int, vals []fp16.Num) error {
	if err := d.check("write", addr, len(vals)); err != nil {
		return err
	}
	n := 0
	if addr < len(d.image) && len(vals) > 0 {
		if !d.owned {
			d.image, d.owned = slices.Clone(d.image), true
		}
		n = copy(d.image[addr:], vals)
	}
	if n < len(vals) {
		copy(d.rest[addr+n-len(d.image):], vals[n:])
	}
	return nil
}
