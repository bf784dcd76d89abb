// Package bfp implements block floating-point (BFP) arithmetic, the number
// format the BrainWave-like accelerator uses for matrix-vector
// multiplication (paper §3). A block of values shares a single exponent;
// each value keeps only a narrow two's-complement mantissa. Multiplying two
// blocks therefore reduces to cheap integer multiply-accumulate plus one
// exponent addition, which is what lets the accelerator pack thousands of
// multipliers into the FPGA's DSP slices.
//
// The format implemented here matches the BrainWave publications: a shared
// 8-bit exponent per block with sign-magnitude-style narrow mantissas
// (default 5 bits including sign, "ms-fp9"-like when paired with blocks of
// the native dimension). Mantissa width is configurable so experiments can
// trade accuracy for density.
package bfp

import (
	"errors"
	"fmt"
	"math"

	"mlvfpga/internal/fp16"
)

// DefaultMantissaBits is the mantissa width (including the sign bit) used by
// the accelerator's MVM tiles. 5 bits matches the BrainWave ms-fp9 style
// format when combined with the shared 8-bit exponent.
const DefaultMantissaBits = 5

// ErrBadWidth is returned when constructing a codec with an unsupported
// mantissa width.
var ErrBadWidth = errors.New("bfp: mantissa width must be in [2,24]")

// Codec quantizes float vectors into shared-exponent blocks.
type Codec struct {
	mantBits int   // total mantissa bits including sign
	maxMag   int32 // largest representable magnitude, 2^(mantBits-1)-1
}

// NewCodec returns the codec with the given mantissa width (including
// sign bit), which every caller of that width shares: a Codec is
// immutable. Width must be between 2 and 24.
func NewCodec(mantissaBits int) (*Codec, error) {
	if mantissaBits < 2 || mantissaBits >= len(codecs) {
		return nil, fmt.Errorf("%w: %d", ErrBadWidth, mantissaBits)
	}
	return &codecs[mantissaBits], nil
}

// codecs holds the codec of each width up to 24, built once.
var codecs = func() (cs [25]Codec) {
	for w := 2; w < len(cs); w++ {
		cs[w] = Codec{mantBits: w, maxMag: int32(1)<<(w-1) - 1}
	}
	return cs
}()

// Block is a quantized vector: integer mantissas scaled by 2^Exp.
// value[i] = Mant[i] * 2^Exp.
type Block struct {
	Mant []int32
	Exp  int
}

// QuantizeInto converts xs into one shared-exponent block written into b,
// reusing b.Mant's backing array when it is large enough: the
// allocation-free quantization the accelerator runs per mv_mul. The
// exponent is chosen so the largest magnitude uses the full mantissa range;
// all other elements are rounded to nearest (ties away from zero, matching a
// simple hardware rounder).
func (c *Codec) QuantizeInto(b *Block, xs []float64) {
	mant := b.Mant
	if cap(mant) < len(xs) {
		mant = make([]int32, len(xs))
	}
	mant = mant[:len(xs)]
	b.Mant = mant
	b.Exp = 0

	maxAbs := 0.0
	for _, x := range xs {
		a := math.Abs(x)
		if a > maxAbs && !math.IsInf(x, 0) && !math.IsNaN(x) {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range mant {
			mant[i] = 0
		}
		return
	}
	exp := c.blockExp(maxAbs)
	scale := math.Ldexp(1, -exp)
	// For deep-subnormal blocks -exp can exceed the float64 exponent range
	// and the precomputed scale degenerates to Inf (or 0); fall back to
	// per-element Ldexp, which scales exactly.
	slowScale := math.IsInf(scale, 0) || scale == 0
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			mant[i] = 0 // encode as zero: hardware flushes non-finite input
			continue
		}
		var m float64
		if slowScale {
			m = math.Round(math.Ldexp(x, -exp))
		} else {
			m = math.Round(x * scale)
		}
		if m > float64(c.maxMag) {
			m = float64(c.maxMag)
		}
		if m < -float64(c.maxMag) {
			m = -float64(c.maxMag)
		}
		mant[i] = int32(m)
	}
	b.Exp = exp
}

// blockExp is the shared exponent of a block whose largest finite
// magnitude is maxAbs > 0: the least exp for which maxAbs/2^exp rounds
// into maxMag.
func (c *Codec) blockExp(maxAbs float64) int {
	// exp = ceil(log2(maxAbs / maxMag)). The log is taken via Frexp
	// because the direct quotient underflows to zero for deep-subnormal
	// maxAbs, and ceil(log2(0)) = MinInt64 wedges the guard loop below.
	fr, e2 := math.Frexp(maxAbs)
	exp := int(math.Ceil(float64(e2) + math.Log2(fr) - math.Log2(float64(c.maxMag))))
	// Guard against boundary rounding pushing past the max magnitude.
	for math.Round(math.Ldexp(maxAbs, -exp)) > float64(c.maxMag) {
		exp++
	}
	return exp
}

// QuantizeVectorInto converts a vector into blocks matching a matrix's
// column blocking, so a packed product can pair them up, reusing dst's
// blocks and their mantissa arrays (nil allocates). It returns the
// (possibly regrown) block slice; after a warm-up call with the same shape
// it performs no allocation.
func (c *Codec) QuantizeVectorInto(dst []Block, xs []float64, blockSize int) ([]Block, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("bfp: block size must be positive, got %d", blockSize)
	}
	nb := (len(xs) + blockSize - 1) / blockSize
	if cap(dst) < nb {
		grown := make([]Block, nb)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:nb]
	for j := 0; j < nb; j++ {
		lo := j * blockSize
		hi := lo + blockSize
		if hi > len(xs) {
			hi = len(xs)
		}
		c.QuantizeInto(&dst[j], xs[lo:hi])
	}
	return dst, nil
}

// fastExp bounds the block exponents the packed kernel scales by
// multiplication: inside ±fastExp on both operands, 2^(we+ve) is a normal
// float64 and float64(dot)·2^(we+ve) is exactly what math.Ldexp returns.
const fastExp = 500

// pow2 returns 2^k for |k| ≤ 2·fastExp, built from the exponent field.
func pow2(k int) float64 { return math.Float64frombits(uint64(k+1023) << 52) }

// peel splits the low bits-wide signed lane off a packed sum and returns the
// remaining lanes shifted down. Subtracting the lane before the arithmetic
// shift undoes the borrow a negative lane took from its neighbour.
func peel(acc int64, bits uint) (lane, rest int64) {
	lane = acc << (64 - bits) >> (64 - bits)
	return lane, (acc - lane) >> bits
}

// PackedMatrix is the weight-stationary, on-chip form of a block-quantized
// matrix, lane-packed the way narrow BFP mantissas share one DSP slice:
// `lanes` consecutive rows (a group) share one int64 word per column,
//
//	word[g][c] = Σ_l mant[g·lanes+l][c] << (l·64/lanes)
//
// so one multiply, acc += word·x, advances every lane's exact integer block
// dot at once and peel separates them. The lane count is the widest for
// which a block dot of two codec-width operands provably fits its lane
// (table in DESIGN.md §7): four for the 5-bit serving default, two up to
// 13 bits, one beyond. Groups pad to whole lanes; a row's last block is
// stored at its own width, so a group takes exactly Cols words.
type PackedMatrix struct {
	Rows, Cols, BlockSize int

	nb     int   // column blocks per row
	lanes  int   // rows per word: 4, 2 or 1
	maxMag int64 // the codec's mantissa magnitude bound, which the weights obey
	vecMax int64 // largest vector mantissa magnitude the lanes are proved for
	exact  bool  // a weight exponent is outside ±fastExp: every product takes the exact path

	words []int64 // [group][column]
	exp   []int32 // shared exponents, [group][block][lane]
}

// QuantizeMatrixPacked converts a row-major rows x cols float matrix into
// the packed on-chip layout, each row block quantized independently with a
// shared exponent.
func (c *Codec) QuantizeMatrixPacked(data []float64, rows, cols, blockSize int) (*PackedMatrix, error) {
	if rows < 0 || cols < 0 || len(data) != rows*cols {
		return nil, fmt.Errorf("bfp: matrix shape %dx%d does not match %d values", rows, cols, len(data))
	}
	return c.QuantizeRowsPacked(nil, rows, cols, blockSize, func(r int) ([]float64, error) {
		return data[r*cols : (r+1)*cols], nil
	})
}

// QuantizeRowsPacked is QuantizeMatrixPacked fed one row at a time (row(r)
// is valid until the next call), so a tile streaming out of DRAM is never
// whole in float64. An into of the same shape and mantissa width is refilled
// and returned, its old contents lost even on error; else it is ignored.
func (c *Codec) QuantizeRowsPacked(into *PackedMatrix, rows, cols, blockSize int, row func(r int) ([]float64, error)) (*PackedMatrix, error) {
	pm, err := c.packedFor(into, rows, cols, blockSize)
	if err != nil {
		return nil, err
	}
	var scratch Block
	for r := 0; r < rows; r++ {
		xs, err := row(r)
		if err != nil {
			return nil, err
		}
		if len(xs) != cols {
			return nil, fmt.Errorf("bfp: row %d has %d values, matrix has %d columns", r, len(xs), cols)
		}
		g, l := r/pm.lanes, r%pm.lanes
		for j := 0; j < pm.nb; j++ {
			c.QuantizeInto(&scratch, xs[j*blockSize:min((j+1)*blockSize, cols)])
			pm.setExp(g, j, l, scratch.Exp)
			wm := pm.words[g*cols+j*blockSize:]
			for i, m := range scratch.Mant {
				wm[i] += int64(m) << (l * (64 / pm.lanes))
			}
		}
	}
	return pm, nil
}

// QuantizeHalfPacked is QuantizeRowsPacked for binary16 rows, the form a
// tile has in DRAM, quantized from the bits (maxFinite, blockExp of the
// block maximum, halfShifts) into exactly what QuantizeInto makes of the
// widened values.
func (c *Codec) QuantizeHalfPacked(into *PackedMatrix, rows, cols, blockSize int, row func(r int) ([]fp16.Num, error)) (*PackedMatrix, error) {
	pm, err := c.packedFor(into, rows, cols, blockSize)
	if err != nil {
		return nil, err
	}
	sh := halfShifts{exp: math.MinInt}
	for r := 0; r < rows; r++ {
		hs, err := row(r)
		if err != nil {
			return nil, err
		}
		if len(hs) != cols {
			return nil, fmt.Errorf("bfp: row %d has %d values, matrix has %d columns", r, len(hs), cols)
		}
		g, l := r/pm.lanes, r%pm.lanes
		for j := 0; j < pm.nb; j++ {
			lo, hi := j*blockSize, min((j+1)*blockSize, cols)
			exp := 0
			if a := maxFinite(hs[lo:hi]); a != 0 {
				exp = c.blockExp(a.Float64())
			}
			pm.setExp(g, j, l, exp)
			if exp != sh.exp {
				sh.set(exp)
			}
			sh.pack(pm.words[g*cols+lo:g*cols+hi], hs[lo:hi], uint(l*(64/pm.lanes)))
		}
	}
	return pm, nil
}

// maxFinite returns the largest finite magnitude in hs as its bits
// (binary16 magnitudes order like their bit patterns), four running maxima
// at a time so no compare waits on the one before.
func maxFinite(hs []fp16.Num) fp16.Num {
	var m0, m1, m2, m3 uint32
	for ; len(hs) >= 4; hs = hs[4:] {
		m0, m1 = max(m0, finiteBits(hs[0])), max(m1, finiteBits(hs[1]))
		m2, m3 = max(m2, finiteBits(hs[2])), max(m3, finiteBits(hs[3]))
	}
	for _, h := range hs {
		m0 = max(m0, finiteBits(h))
	}
	return fp16.Num(max(m0, m1, m2, m3))
}

// finiteBits is h's magnitude bits, or 0 for an infinity or NaN (whose
// magnitude bits plus 0x400 carry into bit 15).
func finiteBits(h fp16.Num) uint32 {
	a := uint32(h & 0x7fff)
	return a &^ -((a + 0x400) >> 15)
}

// halfShifts quantizes binary16 values into a block of exponent exp. A
// finite ±s·2^(e−25) (s the significand with its hidden bit, e the
// exponent field, 1 for subnormals) has mantissa ±round(s·2^(e−25−exp)):
// s·2^51 plus 2^(r−1), shifted right by r = 76+exp−e ≥ 38, rounds it half
// away from zero exactly. Tables indexed by the exponent field hold the
// addend (with the hidden bit) and r; non-finite values get r = 63, which
// flushes them to zero. No clamp is needed: rounding is monotonic and
// blockExp fits the block's maximum into maxMag.
type halfShifts struct {
	exp      int
	add, shr [32]uint64
}

func (sh *halfShifts) set(exp int) {
	sh.exp = exp
	for e := range 32 {
		r := 63
		if e < 31 { // r ≥ 1 also for fields above the block maximum's, never looked up
			r = min(max(76+exp-max(e, 1), 1), 63)
		}
		sh.shr[e], sh.add[e] = uint64(r), uint64(min(e, 1))<<61+1<<(r-1)
	}
}

// pack adds each value's mantissa, moved up to its lane, to its packed
// word.
func (sh *halfShifts) pack(words []int64, hs []fp16.Num, lane uint) {
	words = words[:len(hs)]
	for i, h := range hs {
		e := h >> 10 & 31
		m := int64((uint64(h&0x3ff)<<51 + sh.add[e]) >> (sh.shr[e] & 63))
		neg := -int64(h >> 15) // all ones when negative: a branch would mispredict on half the weights
		words[i] += (m ^ neg - neg) << (lane & 63)
	}
}

// packedFor checks a packed matrix's shape and returns into, cleared, when
// it has the same shape and mantissa width; else a new matrix at the
// widest lane count whose lanes provably hold a block dot.
func (c *Codec) packedFor(into *PackedMatrix, rows, cols, blockSize int) (*PackedMatrix, error) {
	if rows < 0 || cols < 0 || blockSize <= 0 {
		return nil, fmt.Errorf("bfp: matrix shape %dx%d in blocks of %d", rows, cols, blockSize)
	}
	if pm := into; pm != nil && pm.Rows == rows && pm.Cols == cols && pm.BlockSize == blockSize && pm.maxMag == int64(c.maxMag) {
		clear(pm.words)
		pm.exact = false
		return pm, nil
	}
	pm := &PackedMatrix{
		Rows: rows, Cols: cols, BlockSize: blockSize,
		nb: (cols + blockSize - 1) / blockSize, maxMag: int64(c.maxMag),
	}
	// Widest packing whose lanes hold maxMag·vecMax·blockLen, vecMax ≥ maxMag.
	perUnit := pm.maxMag * int64(max(1, min(blockSize, cols)))
	for pm.lanes = 4; pm.lanes > 1; pm.lanes /= 2 {
		if pm.vecMax = (int64(1)<<(64/pm.lanes-1) - 1) / perUnit; pm.vecMax >= pm.maxMag {
			break
		}
	}
	if pm.lanes == 1 {
		pm.vecMax = math.MaxInt64 // the plain int64 dot: no bound to hold
	}
	groups := (rows + pm.lanes - 1) / pm.lanes
	pm.words = make([]int64, groups*cols)
	pm.exp = make([]int32, groups*pm.nb*pm.lanes)
	return pm, nil
}

// setExp records row g·lanes+l's exponent for block j.
func (pm *PackedMatrix) setExp(g, j, l, exp int) {
	pm.exp[(g*pm.nb+j)*pm.lanes+l] = int32(exp)
	pm.exact = pm.exact || exp < -fastExp || exp > fastExp
}

// Vector is a block-quantized vector with the facts that decide a packed
// product's arm (largest mantissa magnitude, exponent range), gathered once
// by Describe rather than once per product.
type Vector struct {
	Blocks []Block

	maxMag         int64 // largest |mantissa|
	minExp, maxExp int
}

// Describe walks blocks once; the facts go stale if blocks change afterwards.
func Describe(blocks []Block) Vector {
	v := Vector{Blocks: blocks}
	for j, b := range blocks {
		if j == 0 {
			v.minExp, v.maxExp = b.Exp, b.Exp
		}
		v.minExp, v.maxExp = min(v.minExp, b.Exp), max(v.maxExp, b.Exp)
		for _, m := range b.Mant {
			v.maxMag = max(v.maxMag, int64(m), -int64(m))
		}
	}
	return v
}

// fast reports whether v is inside the bounds the lanes were proved for;
// a mantissa beyond vecMax or a deep-subnormal block takes the exact arm.
func (pm *PackedMatrix) fast(v *Vector) bool {
	return !pm.exact && v.maxMag <= pm.vecMax && v.minExp >= -fastExp && v.maxExp <= fastExp
}

// dotWords returns Σ w[i]·x[i] over len(x) columns, wrapping in int64: the
// loop a request spends its time in, kept apart so it keeps its registers.
func dotWords(w []int64, x []int32) int64 {
	w = w[:len(x)]
	var a0, a1, a2, a3 int64
	for len(x) >= 8 && len(w) >= 8 {
		a0 += w[0]*int64(x[0]) + w[4]*int64(x[4])
		a1 += w[1]*int64(x[1]) + w[5]*int64(x[5])
		a2 += w[2]*int64(x[2]) + w[6]*int64(x[6])
		a3 += w[3]*int64(x[3]) + w[7]*int64(x[7])
		w, x = w[8:], x[8:]
	}
	for i, xi := range x {
		a0 += w[i] * int64(xi)
	}
	return a0 + a1 + a2 + a3
}

// laneDot is lane l's block dot taken the slow way: each word's lane is
// peeled out and multiplied on its own, so nothing carries between lanes.
func laneDot(w []int64, x []int32, l int, bits uint) (acc int64) {
	for i, xi := range x {
		m, rest := peel(w[i], bits)
		for k := 0; k < l; k++ {
			m, rest = peel(rest, bits)
		}
		acc += m * int64(xi)
	}
	return acc
}

// groupDot computes rows [g·lanes, (g+1)·lanes) of M·v. The fast arm runs
// every lane's block dot in one pass of multiplies and scales by 2^k; the
// exact arm (out-of-proof inputs, and the tests' reference) dots lane by
// lane and scales with Ldexp. Same integers, same power-of-two scaling, same
// block-order accumulation: where both apply they agree bit for bit.
func (pm *PackedMatrix) groupDot(out []float64, g int, v []Block, fast bool) {
	var sum [4]float64
	bits := uint(64 / pm.lanes)
	words, exps := pm.words[g*pm.Cols:], pm.exp[g*pm.nb*pm.lanes:]
	for j := range v {
		vm, wm := v[j].Mant, words[j*pm.BlockSize:]
		var acc, d int64
		if fast {
			acc = dotWords(wm, vm)
		}
		for l := 0; l < pm.lanes; l++ {
			k := int(exps[j*pm.lanes+l]) + v[j].Exp
			if fast {
				d, acc = peel(acc, bits)
				sum[l] += float64(d) * pow2(k)
			} else {
				sum[l] += math.Ldexp(float64(laneDot(wm, vm, l, bits)), k)
			}
		}
	}
	dst := out[g*pm.lanes:] // shorter than a group when Rows is not a multiple of lanes
	for l := 0; l < pm.lanes && l < len(dst); l++ {
		dst[l] = sum[l]
	}
}

// MatVecInto multiplies the packed matrix by a block-quantized vector into
// out (length Rows) without allocating.
func (pm *PackedMatrix) MatVecInto(out []float64, v []Block) error {
	outs, vs := [1][]float64{out}, [1]Vector{Describe(v)}
	return pm.MatVecBatchInto(outs[:], vs[:])
}

// MatVecBatchInto computes outs[s] = M * vs[s] for every stream s in one
// pass over the matrix: the stream loop sits inside the row-group loop, so
// one group of packed words serves every stream while it is in L1 — the
// BrainWave-style batched MVM that amortizes a weight-stationary tile.
// Each stream's result is bit-identical to a standalone MatVecInto.
func (pm *PackedMatrix) MatVecBatchInto(outs [][]float64, vs []Vector) error {
	if len(outs) != len(vs) {
		return fmt.Errorf("bfp: %d outputs for %d vectors", len(outs), len(vs))
	}
	for s := range vs {
		v := vs[s].Blocks
		if len(v) != pm.nb || len(outs[s]) != pm.Rows {
			return fmt.Errorf("bfp: stream %d: %d blocks into %d outputs, matrix has %d blocks and %d rows", s, len(v), len(outs[s]), pm.nb, pm.Rows)
		}
		for j := range v {
			if want := min(pm.BlockSize, pm.Cols-j*pm.BlockSize); len(v[j].Mant) != want {
				return fmt.Errorf("bfp: stream %d: vector block %d has %d elements, want %d", s, j, len(v[j].Mant), want)
			}
		}
	}
	for g := 0; g*pm.lanes < pm.Rows; g++ {
		for s := range vs {
			pm.groupDot(outs[s], g, vs[s].Blocks, pm.fast(&vs[s]))
		}
	}
	return nil
}
