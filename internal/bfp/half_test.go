package bfp

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mlvfpga/internal/fp16"
)

// halfRows feeds a row-major binary16 matrix to QuantizeHalfPacked.
func halfRows(hs []fp16.Num, cols int) func(int) ([]fp16.Num, error) {
	return func(r int) ([]fp16.Num, error) { return hs[r*cols : (r+1)*cols], nil }
}

// widen is the float64 image of hs, what the float entry points quantize.
func widen(hs []fp16.Num) []float64 {
	xs := make([]float64, len(hs))
	fp16.ToSlice64Into(xs, hs)
	return xs
}

// TestHalfEncoderExhaustive holds the binary16 encoder to QuantizeInto of
// the widened values for every binary16 value v, in a two-element block
// with v's partner setting the maximum: v itself, the smallest and largest
// subnormal, the smallest normal, 1, the largest finite value, -v, NaN and
// both infinities — at mantissa widths from the narrowest to the widest.
// One 1-row matrix in blocks of two holds every v's block; a 1-row
// matrix's words are its mantissas, unshifted.
func TestHalfEncoderExhaustive(t *testing.T) {
	partners := []func(v fp16.Num) fp16.Num{
		func(v fp16.Num) fp16.Num { return v },
		func(fp16.Num) fp16.Num { return 0x0001 },
		func(fp16.Num) fp16.Num { return 0x03ff },
		func(fp16.Num) fp16.Num { return 0x0400 },
		func(fp16.Num) fp16.Num { return 0x3c00 },
		func(fp16.Num) fp16.Num { return 0x7bff },
		func(v fp16.Num) fp16.Num { return v ^ 0x8000 },
		func(fp16.Num) fp16.Num { return 0x7e00 },
		func(fp16.Num) fp16.Num { return 0x7c00 },
		func(fp16.Num) fp16.Num { return 0xfc00 },
	}
	const n = 1 << 16
	for _, width := range []int{2, 5, 8, 13, 24} {
		t.Run(fmt.Sprint(width), func(t *testing.T) {
			t.Parallel()
			c := MustCodec(width)
			hs, xs := make([]fp16.Num, 2*n), make([]float64, 2*n)
			var pm *PackedMatrix
			var want Block
			for _, partner := range partners {
				for v := range n {
					hs[2*v], hs[2*v+1] = fp16.Num(v), partner(fp16.Num(v))
				}
				fp16.ToSlice64Into(xs, hs)
				var err error
				if pm, err = c.QuantizeHalfPacked(pm, 1, 2*n, 2, halfRows(hs, 2*n)); err != nil {
					t.Fatal(err)
				}
				for v := range n {
					c.QuantizeInto(&want, xs[2*v:2*v+2])
					if got := pm.words[2*v : 2*v+2]; int(pm.exp[v*pm.lanes]) != want.Exp || got[0] != int64(want.Mant[0]) || got[1] != int64(want.Mant[1]) {
						t.Fatalf("block [%#04x %#04x]: exp %d mantissas %v, QuantizeInto exp %d mantissas %v",
							hs[2*v], hs[2*v+1], pm.exp[v*pm.lanes], got, want.Exp, want.Mant)
					}
				}
			}
		})
	}
}

// TestHalfPackedMatchesFloat pins the two entry points to the same packed
// matrix, field for field, over TestPackedTileBytes' shapes, ragged shapes
// and all three lane counts, with subnormals, zeros, infinities and NaNs
// planted; a refill in place equals a fresh quantization.
func TestHalfPackedMatchesFloat(t *testing.T) {
	shapes := []struct{ rows, cols, bs int }{
		{9, 1, 128}, {9, 31, 128}, {9, 64, 128}, {9, 128, 128}, {9, 129, 128}, {9, 200, 128},
		{1, 1, 1}, {7, 10, 4}, {9, 300, 128}, {3, 20, 1 << 9}, {16, 256, 128},
	}
	r := rand.New(rand.NewSource(16))
	lanesSeen := map[int]bool{}
	for _, width := range []int{5, 9, 16} {
		c := MustCodec(width)
		for _, sh := range shapes {
			hs := make([]fp16.Num, sh.rows*sh.cols)
			fill := func() {
				for i := range hs {
					switch r.Intn(16) {
					case 0:
						hs[i] = fp16.Num(r.Intn(1 << 16)) // any pattern: subnormals, infinities, NaNs
					case 1:
						hs[i] = 0
					default:
						hs[i] = fp16.FromFloat64(r.NormFloat64() / 8)
					}
				}
			}
			fill()
			got, err := c.QuantizeHalfPacked(nil, sh.rows, sh.cols, sh.bs, halfRows(hs, sh.cols))
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.QuantizeMatrixPacked(widen(hs), sh.rows, sh.cols, sh.bs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("width %d %dx%d/%d: binary16 and float64 entry points differ", width, sh.rows, sh.cols, sh.bs)
			}
			lanesSeen[got.lanes] = true
			fill()
			refill, err := c.QuantizeHalfPacked(got, sh.rows, sh.cols, sh.bs, halfRows(hs, sh.cols))
			if err != nil {
				t.Fatal(err)
			}
			want, _ = c.QuantizeMatrixPacked(widen(hs), sh.rows, sh.cols, sh.bs)
			if refill != got || !reflect.DeepEqual(refill, want) {
				t.Fatalf("width %d %dx%d/%d: in-place refill differs from a fresh quantization", width, sh.rows, sh.cols, sh.bs)
			}
		}
	}
	if !lanesSeen[1] || !lanesSeen[2] || !lanesSeen[4] {
		t.Errorf("lane counts exercised: %v, want 1, 2 and 4", lanesSeen)
	}
}
