package kernels

import (
	"errors"
	"reflect"
	"testing"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
)

// TestImageDRAM checks the shared-image port against a plain accel.Memory
// holding the same words: reads and writes inside the image, above it and
// straddling the split agree, range errors match, and a write into the image
// stays private to the machine that made it.
func TestImageDRAM(t *testing.T) {
	image := make([]fp16.Num, 6)
	fp16.FromSlice64Into(image, []float64{1, 2, 3, 4, 5, 6})
	pristine := append([]fp16.Num{}, image...)
	const words = 10
	a, err := newImageDRAM(image, words)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newImageDRAM(image, words)
	ref := accel.NewMemory(words)
	if err := ref.WriteWords(0, image); err != nil {
		t.Fatal(err)
	}
	if &a.image[0] != &image[0] || &b.image[0] != &image[0] {
		t.Fatal("fresh ports must share the kernel's image, not copy it")
	}
	same := func(when string) {
		t.Helper()
		for addr := 0; addr <= words; addr++ {
			for n := 0; addr+n <= words; n++ {
				got, err1 := readWords(a, addr, n)
				want, err2 := readWords(ref, addr, n)
				if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: read [%d,%d) = %v (%v), memory has %v (%v)", when, addr, addr+n, got, err1, want, err2)
				}
			}
		}
	}
	same("fresh")
	for _, w := range []struct {
		addr int
		vals []float64
	}{
		{7, []float64{70, 80}},     // above the image: stays shared
		{5, []float64{-6, -7, -8}}, // straddles the split: copies the image
		{0, []float64{9}},          // inside the image
		{6, nil},                   // empty write at the split
		{9, []float64{99}},         // last word
	} {
		vals := make([]fp16.Num, len(w.vals))
		fp16.FromSlice64Into(vals, w.vals)
		if err := a.WriteWords(w.addr, vals); err != nil {
			t.Fatal(err)
		}
		if err := ref.WriteWords(w.addr, vals); err != nil {
			t.Fatal(err)
		}
		if w.addr == 7 && &a.image[0] != &image[0] {
			t.Error("a write above the image copied it")
		}
		same("after write")
	}
	if !reflect.DeepEqual(image, pristine) {
		t.Error("a machine's write reached the kernel's image")
	}
	if got, _ := readWords(b, 0, 6); !reflect.DeepEqual(got, pristine) {
		t.Errorf("a machine's write reached its sibling: %v", got)
	}
	for _, bad := range [][2]int{{-1, 2}, {9, 2}, {11, 0}} {
		if _, err := readWords(a, bad[0], bad[1]); !errors.Is(err, accel.ErrDRAMRange) {
			t.Errorf("read [%d,+%d) = %v, want ErrDRAMRange", bad[0], bad[1], err)
		}
	}
	if err := a.WriteWords(8, make([]fp16.Num, 3)); !errors.Is(err, accel.ErrDRAMRange) {
		t.Errorf("write past the board = %v, want ErrDRAMRange", err)
	}
	if _, err := newImageDRAM(image, 5); !errors.Is(err, accel.ErrDRAMRange) {
		t.Errorf("board smaller than the image = %v, want ErrDRAMRange", err)
	}
}

// readWords reads n words at addr through the port's one read method.
func readWords(d accel.DRAM, addr, n int) ([]fp16.Num, error) {
	out := make([]fp16.Num, n)
	return out, d.ReadWordsInto(out, addr)
}
