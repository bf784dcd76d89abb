package bfp

import (
	"fmt"
	"math"
)

// The unpacked block matrix below is the test oracle for PackedMatrix: one
// Block per (row, column block), multiplied with Dot. Nothing serves from it.

// MustCodec is like NewCodec but panics on error.
func MustCodec(mantissaBits int) *Codec {
	c, err := NewCodec(mantissaBits)
	if err != nil {
		panic(err)
	}
	return c
}

// Quantize converts xs into one shared-exponent block (QuantizeInto into a
// fresh block).
func (c *Codec) Quantize(xs []float64) Block {
	var b Block
	c.QuantizeInto(&b, xs)
	return b
}

// QuantizeVector is QuantizeVectorInto into fresh blocks.
func (c *Codec) QuantizeVector(xs []float64, blockSize int) ([]Block, error) {
	return c.QuantizeVectorInto(nil, xs, blockSize)
}

// Dequantize converts a block back to float64. Ldexp keeps the scaling
// exact across the whole exponent range (a precomputed 2^Exp would
// saturate for deep-subnormal blocks).
func (b Block) Dequantize() []float64 {
	out := make([]float64, len(b.Mant))
	for i, m := range b.Mant {
		out[i] = math.Ldexp(float64(m), b.Exp)
	}
	return out
}

// Dot computes the inner product of two blocks exactly in the integer
// domain: sum(a.Mant[i]*b.Mant[i]) * 2^(a.Exp+b.Exp). This is the operation
// one BFP dot-product lane performs. It returns an error if lengths differ.
func Dot(a, b Block) (float64, error) {
	if len(a.Mant) != len(b.Mant) {
		return 0, fmt.Errorf("bfp: dot length mismatch %d vs %d", len(a.Mant), len(b.Mant))
	}
	var acc int64
	for i := range a.Mant {
		acc += int64(a.Mant[i]) * int64(b.Mant[i])
	}
	return math.Ldexp(float64(acc), a.Exp+b.Exp), nil
}

// Matrix is a row-major matrix quantized row-block-wise: each row is split
// into blocks of BlockSize elements sharing one exponent. This mirrors the
// accelerator's tile layout, where one MVM tile holds a native-dimension
// slice of the weight matrix.
type Matrix struct {
	Rows, Cols int
	BlockSize  int
	// Blocks[r][j] covers row r, columns [j*BlockSize, (j+1)*BlockSize).
	Blocks [][]Block
}

// QuantizeMatrix converts a row-major rows x cols float matrix into a
// block-quantized Matrix with the given block size. The final block in a row
// may be shorter when cols is not a multiple of blockSize.
func (c *Codec) QuantizeMatrix(data []float64, rows, cols, blockSize int) (*Matrix, error) {
	if rows < 0 || cols < 0 || len(data) != rows*cols {
		return nil, fmt.Errorf("bfp: matrix shape %dx%d does not match %d values", rows, cols, len(data))
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("bfp: block size must be positive, got %d", blockSize)
	}
	m := &Matrix{Rows: rows, Cols: cols, BlockSize: blockSize}
	m.Blocks = make([][]Block, rows)
	for r := 0; r < rows; r++ {
		row := data[r*cols : (r+1)*cols]
		nb := (cols + blockSize - 1) / blockSize
		m.Blocks[r] = make([]Block, nb)
		for j := 0; j < nb; j++ {
			lo := j * blockSize
			hi := lo + blockSize
			if hi > cols {
				hi = cols
			}
			m.Blocks[r][j] = c.Quantize(row[lo:hi])
		}
	}
	return m, nil
}

// MatVec multiplies a block-quantized matrix by a block-quantized vector,
// accumulating per-block dot products in float64 (the accelerator
// accumulates in a wide fixed-point format; float64 is a superset). The
// vector blocking must match the matrix blocking.
func MatVec(m *Matrix, v []Block) ([]float64, error) {
	nb := (m.Cols + m.BlockSize - 1) / m.BlockSize
	if len(v) != nb {
		return nil, fmt.Errorf("bfp: vector has %d blocks, matrix needs %d", len(v), nb)
	}
	for j := 0; j < nb; j++ {
		want := m.BlockSize
		if j == nb-1 {
			want = m.Cols - j*m.BlockSize
		}
		if len(v[j].Mant) != want {
			return nil, fmt.Errorf("bfp: vector block %d has %d elements, want %d", j, len(v[j].Mant), want)
		}
	}
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var sum float64
		for j := 0; j < nb; j++ {
			d, err := Dot(m.Blocks[r][j], v[j])
			if err != nil {
				return nil, err
			}
			sum += d
		}
		out[r] = sum
	}
	return out, nil
}
