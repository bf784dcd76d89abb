package fp16

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestKnownEncodings(t *testing.T) {
	cases := []struct {
		f    float64
		want Num
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},          // largest finite
		{65536, 0x7C00},          // overflows to +Inf
		{-70000, 0xFC00},         // overflows to -Inf
		{5.9604645e-8, 0x0001},   // smallest subnormal 2^-24
		{6.097555e-5, 0x03FF},    // largest subnormal
		{6.103515625e-5, 0x0400}, // smallest normal 2^-14
		{0.333251953125, 0x3555}, // nearest half to 1/3
	}
	for _, c := range cases {
		if got := FromFloat64(c.f); got != c.want {
			t.Errorf("FromFloat64(%v) = %#04x, want %#04x", c.f, got, c.want)
		}
	}
}

func TestDecodeKnown(t *testing.T) {
	cases := []struct {
		n    Num
		want float64
	}{
		{0x3C00, 1},
		{0xC000, -2},
		{0x7BFF, 65504},
		{0x0001, math.Pow(2, -24)},
		{0x0400, math.Pow(2, -14)},
		{0x3555, 0.333251953125},
	}
	for _, c := range cases {
		if got := c.n.Float64(); got != c.want {
			t.Errorf("%#04x.Float64() = %v, want %v", uint16(c.n), got, c.want)
		}
	}
}

// isInf reports whether n is an infinity of either sign.
func isInf(n Num) bool { return n&0x7FFF == 0x7C00 }

func TestSpecials(t *testing.T) {
	if !math.IsInf(positiveInfinity.Float64(), 1) || !math.IsInf(negativeInfinity.Float64(), -1) {
		t.Error("infinities must decode to infinities of their sign")
	}
	if !quietNaN.IsNaN() || positiveInfinity.IsNaN() {
		t.Error("IsNaN misclassifies")
	}
	if PositiveZero.Float64() != 0 || negativeZero.Float64() != 0 || !math.Signbit(negativeZero.Float64()) {
		t.Error("zeros must decode to zeros of their sign")
	}
	if !FromFloat64(math.NaN()).IsNaN() {
		t.Error("NaN must round-trip to NaN")
	}
	if !math.IsNaN(quietNaN.Float64()) {
		t.Error("NaN must decode to NaN")
	}
	if FromFloat64(math.Inf(1)) != positiveInfinity {
		t.Error("+Inf must encode to +Inf")
	}
	if FromFloat64(math.Copysign(0, -1)) != negativeZero {
		t.Error("-0 must encode to negative zero")
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 (0x3C00) and the next half
	// (0x3C01); round-to-even keeps 0x3C00.
	f := 1 + math.Pow(2, -11)
	if got := FromFloat64(f); got != 0x3C00 {
		t.Errorf("halfway tie rounded to %#04x, want 0x3C00 (even)", uint16(got))
	}
	// 1 + 3*2^-11 is halfway between 0x3C01 and 0x3C02; round-to-even picks
	// 0x3C02.
	f = 1 + 3*math.Pow(2, -11)
	if got := FromFloat64(f); got != 0x3C02 {
		t.Errorf("odd tie rounded to %#04x, want 0x3C02 (even)", uint16(got))
	}
	// Just above the tie must round up.
	f = 1 + math.Pow(2, -11) + math.Pow(2, -20)
	if got := FromFloat64(f); got != 0x3C01 {
		t.Errorf("above-tie rounded to %#04x, want 0x3C01", uint16(got))
	}
}

func TestArithmetic(t *testing.T) {
	a, b := FromFloat64(1.5), FromFloat64(2.25)
	if got := Add(a, b).Float64(); got != 3.75 {
		t.Errorf("1.5+2.25 = %v", got)
	}
	if got := Sub(a, b).Float64(); got != -0.75 {
		t.Errorf("1.5-2.25 = %v", got)
	}
	if got := Mul(a, b).Float64(); got != 3.375 {
		t.Errorf("1.5*2.25 = %v", got)
	}
}

func TestActivations(t *testing.T) {
	if got := Sigmoid(PositiveZero).Float64(); got != 0.5 {
		t.Errorf("sigmoid(0) = %v", got)
	}
	if got := Tanh(PositiveZero).Float64(); got != 0 {
		t.Errorf("tanh(0) = %v", got)
	}
	// Saturation behaviour.
	if got := Sigmoid(FromFloat64(20)).Float64(); got != 1 {
		t.Errorf("sigmoid(20) = %v, want 1 after rounding", got)
	}
	if got := Tanh(FromFloat64(-20)).Float64(); got != -1 {
		t.Errorf("tanh(-20) = %v", got)
	}
}

func TestLess(t *testing.T) {
	if !Less(FromFloat64(1), FromFloat64(2)) || Less(FromFloat64(2), FromFloat64(1)) {
		t.Error("Less ordering wrong")
	}
	if Less(quietNaN, FromFloat64(1)) || Less(FromFloat64(1), quietNaN) {
		t.Error("NaN must compare false")
	}
}

func TestSliceConversions(t *testing.T) {
	xs := []float64{0, 1, -2, 0.5}
	half, back := make([]Num, len(xs)), make([]float64, len(xs))
	FromSlice64Into(half, xs)
	ToSlice64Into(back, half)
	for i := range xs {
		if back[i] != xs[i] {
			t.Errorf("slice round trip [%d] = %v, want %v", i, back[i], xs[i])
		}
	}
}

// Property: every 16-bit pattern that is not NaN survives a
// Num -> float32 -> Num round trip exactly.
func TestExhaustiveRoundTrip(t *testing.T) {
	for i := 0; i <= 0xFFFF; i++ {
		n := Num(i)
		if n.IsNaN() {
			if !FromFloat32(n.Float32()).IsNaN() {
				t.Fatalf("NaN pattern %#04x lost", i)
			}
			continue
		}
		if got := FromFloat32(n.Float32()); got != n {
			t.Fatalf("round trip %#04x -> %v -> %#04x", i, n.Float32(), uint16(got))
		}
	}
}

// Property: FromFloat32 returns the nearest representable half for random
// finite inputs (checked against a brute-force nearest search within one ulp).
func TestQuickNearest(t *testing.T) {
	f := func(u uint16, frac uint16) bool {
		n := Num(u)
		if n.IsNaN() || isInf(n) {
			return true
		}
		// Perturb within half an ulp: result must round back to n or a
		// neighbour whose distance is not larger.
		x := n.Float32()
		eps := float32(math.Abs(float64(x)))*1e-4 + 1e-9
		y := x + eps*(float32(frac%128)/128-0.5)
		g := FromFloat32(y)
		if g.IsNaN() || isInf(g) {
			return true
		}
		// The error of the chosen representation must be minimal vs its
		// adjacent representable values.
		d := math.Abs(float64(g.Float32()) - float64(y))
		for delta := -1; delta <= 1; delta += 2 {
			alt := Num(uint16(int(g) + delta))
			if alt.IsNaN() || isInf(alt) || (g&0x8000) != (alt&0x8000) {
				continue
			}
			if math.Abs(float64(alt.Float32())-float64(y)) < d-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Add is commutative and Mul by 1 is identity.
func TestQuickAlgebra(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := Num(a), Num(b)
		if x.IsNaN() || y.IsNaN() {
			return true
		}
		if Add(x, y) != Add(y, x) && !Add(x, y).IsNaN() {
			return false
		}
		one := FromFloat64(1)
		if !x.IsNaN() && Mul(x, one) != x && x&0x7FFF != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Special values the tests compare against.
const (
	negativeZero     Num = 0x8000
	positiveInfinity Num = 0x7C00
	negativeInfinity Num = 0xFC00
	quietNaN         Num = 0x7E00 // the canonical quiet NaN the package produces
)

// TestFromFloat64RoundsThroughBinary32 pins FromFloat64 as two roundings,
// to binary32 and then to binary16: 1 + 2^-11 + 2^-40 becomes the binary32
// 1 + 2^-11, a binary16 tie that goes to even, 0x3C00, where the binary16
// nearest the input is 0x3C01. FromDecimal matches the composition.
func TestFromFloat64RoundsThroughBinary32(t *testing.T) {
	if got := FromFloat64(1 + 0x1p-11 + 0x1p-40); got != 0x3C00 {
		t.Fatalf("FromFloat64(1 + 2^-11 + 2^-40) = %#04x, want 0x3C00", uint16(got))
	}
	// 1.000488281250000091 is 1 + 2^-11 + 9.1e-17: the same two roundings.
	if got, ok := FromDecimal(1000488281250000091, -18); !ok || got != 0x3C00 {
		t.Fatalf("FromDecimal(1000488281250000091, -18) = %#04x, %v; want 0x3C00, true", uint16(got), ok)
	}
}

// TestFromDecimal checks FromDecimal against FromFloat64(ParseFloat) on
// exact values, ties and overflow, and that it declines exponents past
// 10^±22 and a value that sits on a binary32 tie.
func TestFromDecimal(t *testing.T) {
	for _, c := range []struct {
		w    uint64
		e    int
		text string
	}{
		{0, 0, "0"}, {0, -22, "0e-22"}, {1, 0, "1"}, {5, -1, "0.5"}, {65504, 0, "65504"},
		{65519, 0, "65519"}, {65520, 0, "65520"}, {100048828125, -11, "1.00048828125"},
		{1, 22, "1e22"}, {1, -22, "1e-22"}, {9999999999999999999, -19, "0.9999999999999999999"},
		{12345678901234567, -21, "1.2345678901234567e-5"}, {59604644775390625, -22, "5.9604644775390625e-6"},
	} {
		want, err := strconv.ParseFloat(c.text, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := FromDecimal(c.w, c.e); !ok || got != FromFloat64(want) {
			t.Errorf("FromDecimal(%d, %d) = %#04x, %v; %s rounds to %#04x", c.w, c.e, uint16(got), ok, c.text, uint16(FromFloat64(want)))
		}
	}
	// 1.000000059604644775 lies 4e-19 below 1 + 2^-24, a binary32 tie.
	for _, c := range [][2]int64{{1, 23}, {1, -23}, {1000000059604644775, -18}} {
		if got, ok := FromDecimal(uint64(c[0]), int(c[1])); ok {
			t.Errorf("FromDecimal(%d, %d) = %#04x, want a decline", c[0], c[1], uint16(got))
		}
	}
}

// TestAppendDecimalMatchesJSON: for every finite binary16, widened,
// AppendDecimal writes encoding/json's bytes or declines, and it covers
// every value from 2^-6 up (m·2^q with m < 2^11 and q ≥ -16 has
// m·5^-q < 10^15) and declines
// every value below 1e-6, which encoding/json writes with an exponent.
func TestAppendDecimalMatchesJSON(t *testing.T) {
	covered := 0
	for i := 0; i < 1<<16; i++ {
		n := Num(i)
		if !n.IsFinite() {
			continue
		}
		v := n.Float64()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := AppendDecimal([]byte("x"), v)
		switch a := math.Abs(v); {
		case ok && string(got) != "x"+string(want):
			t.Fatalf("AppendDecimal(%v) = %s, json.Marshal writes %s", v, got[1:], want)
		case !ok && string(got) != "x":
			t.Fatalf("AppendDecimal(%v) declined but appended %q", v, got[1:])
		case !ok && a >= 0x1p-6, ok && a != 0 && a < 1e-6:
			t.Fatalf("AppendDecimal(%v) = %s, %v", v, got[1:], ok)
		}
		if ok {
			covered++
		}
	}
	t.Logf("AppendDecimal covers %d of 63488 finite binary16 values", covered)
}
