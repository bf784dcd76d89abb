package bfp

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"mlvfpga/internal/fp16"
)

// fuzzVals decodes the payload into float64s (8 bytes each, any bit
// pattern: NaNs, infinities and subnormals included), capped at maxVals so
// one input cannot dominate the fuzz budget.
func fuzzVals(data []byte, maxVals int) []float64 {
	var out []float64
	for len(data) >= 8 && len(out) < maxVals {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return out
}

// FuzzQuantizeRoundTrip checks the number-format contracts the
// accelerator's datapath rests on, for arbitrary inputs:
//
//   - bfp: quantize→dequantize error is within half a mantissa step
//     (0.5·2^Exp) for every finite element, non-finite elements encode as
//     zero, and mantissas respect the configured width;
//   - bfp: the allocation-free *Into variants produce bit-identical
//     blocks to the allocating variants, even over dirty reused buffers;
//   - fp16: FromSlice64Into/ToSlice64Into match the scalar conversions
//     exactly, and a binary16 value survives a float64 round trip
//     unchanged.
func FuzzQuantizeRoundTrip(f *testing.F) {
	f.Add([]byte{5})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0, 0, 0, 0, 0, 0, 0xF0, 0xBF})              // 1.0, -1.0
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0xF8, 0x7F, 0, 0, 0, 0, 0, 0, 0xF0, 0x7F})              // NaN, +Inf
	f.Add([]byte{23, 0x9A, 0x99, 0x99, 0x99, 0x99, 0x99, 0xB9, 0x3F, 1, 0, 0, 0, 0, 0, 0, 0}) // 0.1, subnormal
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mantBits := 2 + int(data[0]%23)
		codec, err := NewCodec(mantBits)
		if err != nil {
			t.Fatalf("NewCodec(%d): %v", mantBits, err)
		}
		vals := fuzzVals(data[1:], 256)
		if len(vals) == 0 {
			return
		}

		// Round-trip error bound. The BFP domain slightly exceeds
		// float64's at both ends: below Exp ≈ -1060 dequantized values
		// leave the subnormal range and the representation itself rounds,
		// and above Exp = 1000 a full-width mantissa (≤ 2^23) times 2^Exp
		// can overflow to Inf. The hardware never runs at either extreme,
		// so the bound is asserted only between them.
		b := codec.Quantize(vals)
		if len(b.Mant) != len(vals) {
			t.Fatalf("block has %d elements for %d inputs", len(b.Mant), len(vals))
		}
		maxMag := int32(1)<<(mantBits-1) - 1
		for i, m := range b.Mant {
			if m > maxMag || m < -maxMag {
				t.Fatalf("mantissa %d is %d, width %d allows ±%d", i, m, mantBits, maxMag)
			}
		}
		back := b.Dequantize()
		bound := math.Ldexp(0.5, b.Exp)
		for i, x := range vals {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				if back[i] != 0 {
					t.Fatalf("element %d: non-finite %v decoded to %v, want 0", i, x, back[i])
				}
				continue
			}
			if b.Exp < -1060 || b.Exp > 1000 {
				continue
			}
			if diff := math.Abs(back[i] - x); diff > bound {
				t.Fatalf("element %d: |%v - %v| = %v exceeds 0.5·2^%d = %v",
					i, back[i], x, diff, b.Exp, bound)
			}
		}

		// QuantizeInto over a dirty reused block must match Quantize.
		dirty := Block{Mant: make([]int32, len(vals)+3), Exp: 99}
		for i := range dirty.Mant {
			dirty.Mant[i] = -7
		}
		codec.QuantizeInto(&dirty, vals)
		if dirty.Exp != b.Exp || len(dirty.Mant) != len(b.Mant) {
			t.Fatalf("QuantizeInto exp/len (%d, %d) != Quantize (%d, %d)",
				dirty.Exp, len(dirty.Mant), b.Exp, len(b.Mant))
		}
		for i := range b.Mant {
			if dirty.Mant[i] != b.Mant[i] {
				t.Fatalf("QuantizeInto mantissa %d is %d, Quantize says %d", i, dirty.Mant[i], b.Mant[i])
			}
		}

		// Vector blocking: allocating and Into paths must agree, for any
		// block size.
		blockSize := 1 + int(data[0]>>3)%8
		va, err := codec.QuantizeVector(vals, blockSize)
		if err != nil {
			t.Fatalf("QuantizeVector: %v", err)
		}
		vb := make([]Block, 1) // undersized and dirty on purpose
		vb[0] = Block{Mant: []int32{-7}, Exp: 99}
		vb, err = codec.QuantizeVectorInto(vb, vals, blockSize)
		if err != nil {
			t.Fatalf("QuantizeVectorInto: %v", err)
		}
		if len(va) != len(vb) {
			t.Fatalf("vector blocking diverged: %d vs %d blocks", len(va), len(vb))
		}
		for j := range va {
			if va[j].Exp != vb[j].Exp || len(va[j].Mant) != len(vb[j].Mant) {
				t.Fatalf("block %d diverged: exp %d/%d, len %d/%d",
					j, va[j].Exp, vb[j].Exp, len(va[j].Mant), len(vb[j].Mant))
			}
			for i := range va[j].Mant {
				if va[j].Mant[i] != vb[j].Mant[i] {
					t.Fatalf("block %d mantissa %d diverged: %d vs %d", j, i, va[j].Mant[i], vb[j].Mant[i])
				}
			}
		}

		// fp16: slice conversions match the scalar ones bit for bit, and
		// binary16 survives the float64 round trip.
		ns := make([]fp16.Num, len(vals))
		fp16.FromSlice64Into(ns, vals)
		fs := make([]float64, len(ns))
		fp16.ToSlice64Into(fs, ns)
		for i := range ns {
			if ns[i] != fp16.FromFloat64(vals[i]) {
				t.Fatalf("fp16 element %d: FromSlice64Into %#04x, FromFloat64 %#04x", i, ns[i], fp16.FromFloat64(vals[i]))
			}
			if math.Float64bits(fs[i]) != math.Float64bits(ns[i].Float64()) {
				t.Fatalf("fp16 element %d: ToSlice64Into %v, Float64 %v", i, fs[i], ns[i].Float64())
			}
		}
		rt := make([]fp16.Num, len(fs))
		fp16.FromSlice64Into(rt, fs)
		for i := range ns {
			if ns[i].IsNaN() {
				if !rt[i].IsNaN() {
					t.Fatalf("fp16 element %d: NaN %#04x round-tripped to %#04x", i, ns[i], rt[i])
				}
				continue
			}
			if rt[i] != ns[i] {
				t.Fatalf("fp16 element %d: %#04x round-tripped to %#04x", i, ns[i], rt[i])
			}
		}
	})
}

// FuzzPackedMatVec holds the lane-packed kernel to the unpacked oracle,
// bit for bit, for arbitrary weights, shapes, mantissa widths (so all
// three lane counts) and 1–8 streams — through MatVecInto, MatVecBatchInto
// and the exact arm. One header byte per stream may plant what the lanes
// were not proved for: a mantissa far beyond the codec's width, or a block
// exponent near ±1074. Those must take the exact path and still match.
// The binary16 arm reads the same payload bytes as binary16 weights (any
// pattern) and holds QuantizeHalfPacked to QuantizeMatrixPacked of the
// widened values, field for field.
//
// Layout: width, rows, block size, streams, eight per-stream tweaks, then
// float64s — the matrix row-major, then one vector per stream.
func FuzzPackedMatVec(f *testing.F) {
	one := []byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F}
	f.Add(append([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, one...)) // too short for a column: skipped
	f.Fuzz(func(t *testing.T, data []byte) {
		const header = 12
		if len(data) < header {
			return
		}
		codec := MustCodec(2 + int(data[0]%23))
		rows := 1 + int(data[1]%9)
		blockSize := []int{1, 2, 3, 4, 7, 16, 128, 512}[data[2]%8]
		streams := 1 + int(data[3]%8)
		vals := fuzzVals(data[header:], 2048)
		cols := len(vals) / (rows + streams)
		if cols == 0 {
			return
		}
		pm, err := codec.QuantizeMatrixPacked(vals[:rows*cols], rows, cols, blockSize)
		if err != nil {
			t.Fatalf("QuantizeMatrixPacked: %v", err)
		}
		ref, err := codec.QuantizeMatrix(vals[:rows*cols], rows, cols, blockSize)
		if err != nil {
			t.Fatalf("QuantizeMatrix: %v", err)
		}
		vs := make([][]Block, streams)
		for s := range vs {
			lo := (rows + s) * cols
			if vs[s], err = codec.QuantizeVector(vals[lo:lo+cols], blockSize); err != nil {
				t.Fatalf("QuantizeVector: %v", err)
			}
			tweak := data[4+s]
			b := &vs[s][int(tweak>>2)%len(vs[s])]
			switch tweak & 3 {
			case 1:
				m := int32(tweak)<<23 | 1 // 2^23..2^31: beyond every codec width
				if tweak&4 != 0 {
					m = -m
				}
				b.Mant[int(tweak>>4)%len(b.Mant)] = m
			case 2:
				b.Exp = 1074 - int(tweak>>2)
			case 3:
				b.Exp = int(tweak>>2) - 1074
			}
			if v := Describe(vs[s]); tweak&3 >= 2 && pm.fast(&v) {
				t.Fatalf("stream %d: block exponent %d stayed on the fast path", s, b.Exp)
			}
		}
		packedAgainstOracle(t, pm, ref, vs)

		hs := make([]fp16.Num, rows*cols)
		for i := range hs {
			hs[i] = fp16.Num(binary.LittleEndian.Uint16(data[header+2*i:]))
		}
		fromBits, err := codec.QuantizeHalfPacked(nil, rows, cols, blockSize, halfRows(hs, cols))
		if err != nil {
			t.Fatalf("QuantizeHalfPacked: %v", err)
		}
		if fromFloat, _ := codec.QuantizeMatrixPacked(widen(hs), rows, cols, blockSize); !reflect.DeepEqual(fromBits, fromFloat) {
			t.Fatalf("binary16 weights %#04x: the bits and the widened values quantize differently", hs)
		}
	})
}
