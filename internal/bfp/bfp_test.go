package bfp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCodecBounds(t *testing.T) {
	for _, w := range []int{1, 0, -3, 25, 100} {
		if _, err := NewCodec(w); err == nil {
			t.Errorf("NewCodec(%d) must fail", w)
		}
	}
	for _, w := range []int{2, 5, 9, 24} {
		c, err := NewCodec(w)
		if err != nil {
			t.Fatalf("NewCodec(%d): %v", w, err)
		}
		if c.mantBits != w {
			t.Errorf("mantissa bits = %d, want %d", c.mantBits, w)
		}
	}
}

func TestMustCodecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCodec(0) must panic")
		}
	}()
	MustCodec(0)
}

func TestQuantizeZeros(t *testing.T) {
	c := MustCodec(5)
	b := c.Quantize([]float64{0, 0, 0})
	if b.Exp != 0 {
		t.Errorf("zero block exp = %d", b.Exp)
	}
	for _, m := range b.Mant {
		if m != 0 {
			t.Errorf("zero block mantissa = %d", m)
		}
	}
}

func TestQuantizeExactPowersOfTwo(t *testing.T) {
	// With 5-bit mantissas (max magnitude 15), the vector {15, -15, 7.5}
	// quantizes exactly at exp = 0? No: maxAbs=15, exp=ceil(log2(15/15))=0.
	c := MustCodec(5)
	b := c.Quantize([]float64{15, -15, 8})
	got := b.Dequantize()
	want := []float64{15, -15, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dequantize[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestQuantizeNonFinite(t *testing.T) {
	c := MustCodec(5)
	b := c.Quantize([]float64{math.NaN(), math.Inf(1), 4})
	if b.Mant[0] != 0 || b.Mant[1] != 0 {
		t.Errorf("non-finite inputs must quantize to 0, got %v", b.Mant)
	}
	if b.Dequantize()[2] != 4 {
		t.Errorf("finite input mangled: %v", b.Dequantize())
	}
}

func TestQuantErrorBound(t *testing.T) {
	// Quantization error is at most half an lsb = 2^(exp-1), and
	// exp <= ceil(log2(maxAbs/maxMag)) < log2(maxAbs/maxMag)+1.
	// So error <= maxAbs/maxMag.
	c := MustCodec(5)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 16)
		maxAbs := 0.0
		for i := range xs {
			xs[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(6)-3))
			if a := math.Abs(xs[i]); a > maxAbs {
				maxAbs = a
			}
		}
		if e := c.QuantError(xs); e > maxAbs/15+1e-15 {
			t.Fatalf("trial %d: quant error %v exceeds bound %v", trial, e, maxAbs/15)
		}
	}
}

func TestDotExactOnRepresentable(t *testing.T) {
	c := MustCodec(8)
	a := c.Quantize([]float64{1, 2, 3, 4})
	b := c.Quantize([]float64{4, 3, 2, 1})
	got, err := Dot(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1*4+2*3+3*2+4*1 {
		t.Errorf("Dot = %v, want 20", got)
	}
}

func TestDotLengthMismatch(t *testing.T) {
	c := MustCodec(5)
	if _, err := Dot(c.Quantize([]float64{1}), c.Quantize([]float64{1, 2})); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestQuantizeMatrixShapeErrors(t *testing.T) {
	c := MustCodec(5)
	if _, err := c.QuantizeMatrix([]float64{1, 2, 3}, 2, 2, 2); err == nil {
		t.Error("bad shape must error")
	}
	if _, err := c.QuantizeMatrix([]float64{1, 2, 3, 4}, 2, 2, 0); err == nil {
		t.Error("bad block size must error")
	}
	if _, err := c.QuantizeVector([]float64{1}, 0); err == nil {
		t.Error("bad vector block size must error")
	}
}

func TestMatVecAgainstFloat(t *testing.T) {
	c := MustCodec(9) // wide mantissa: small error
	r := rand.New(rand.NewSource(42))
	rows, cols, bs := 8, 12, 4
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = r.NormFloat64()
	}
	vec := make([]float64, cols)
	for i := range vec {
		vec[i] = r.NormFloat64()
	}
	m, err := c.QuantizeMatrix(data, rows, cols, bs)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := c.QuantizeVector(vec, bs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MatVec(m, vb)
	if err != nil {
		t.Fatal(err)
	}
	for rI := 0; rI < rows; rI++ {
		want := 0.0
		for cI := 0; cI < cols; cI++ {
			want += data[rI*cols+cI] * vec[cI]
		}
		if math.Abs(got[rI]-want) > 0.05*float64(cols) {
			t.Errorf("row %d: MatVec = %v, float = %v", rI, got[rI], want)
		}
	}
}

func TestMatVecBlockMismatch(t *testing.T) {
	c := MustCodec(5)
	m, _ := c.QuantizeMatrix(make([]float64, 4), 2, 2, 2)
	if _, err := MatVec(m, nil); err == nil {
		t.Error("missing vector blocks must error")
	}
	vb, _ := c.QuantizeVector([]float64{1, 2, 3}, 3)
	if _, err := MatVec(m, vb); err == nil {
		t.Error("wrong-size vector block must error")
	}
}

func TestMatVecRaggedTail(t *testing.T) {
	// cols not a multiple of block size: the tail block is shorter.
	c := MustCodec(9)
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // 2x5
	m, err := c.QuantizeMatrix(data, 2, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := c.QuantizeVector([]float64{1, 1, 1, 1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MatVec(m, vb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-15) > 0.1 || math.Abs(got[1]-40) > 0.2 {
		t.Errorf("ragged MatVec = %v, want [15 40]", got)
	}
}

// Property: mantissas never exceed the representable magnitude.
func TestQuickMantissaRange(t *testing.T) {
	c := MustCodec(5)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+r.Intn(32))
		for i := range xs {
			xs[i] = r.NormFloat64() * math.Pow(2, float64(r.Intn(40)-20))
		}
		b := c.Quantize(xs)
		for _, m := range b.Mant {
			if m > 15 || m < -15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantize/dequantize relative error of the max element is below
// one part in maxMag.
func TestQuickMaxElementAccuracy(t *testing.T) {
	c := MustCodec(9) // maxMag = 255
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 4+r.Intn(16))
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		maxAbs, maxIdx := 0.0, 0
		for i, x := range xs {
			if math.Abs(x) > maxAbs {
				maxAbs, maxIdx = math.Abs(x), i
			}
		}
		if maxAbs == 0 {
			return true
		}
		back := c.Quantize(xs).Dequantize()
		return math.Abs(back[maxIdx]-xs[maxIdx]) <= maxAbs/255+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dot is symmetric.
func TestQuickDotSymmetric(t *testing.T) {
	c := MustCodec(5)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = r.NormFloat64(), r.NormFloat64()
		}
		a, b := c.Quantize(xs), c.Quantize(ys)
		ab, err1 := Dot(a, b)
		ba, err2 := Dot(b, a)
		return err1 == nil && err2 == nil && ab == ba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// QuantError returns the max absolute error introduced by quantizing xs with
// this codec, useful for accuracy experiments.
func (c *Codec) QuantError(xs []float64) float64 {
	back := c.Quantize(xs).Dequantize()
	max := 0.0
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if d := math.Abs(back[i] - x); d > max {
			max = d
		}
	}
	return max
}
