// Package fp16 implements IEEE-754 binary16 ("half precision") arithmetic in
// software. The BrainWave-like accelerator (paper §3) uses float16 for all
// secondary vector operations — point-wise multiplication, addition and
// activation functions — to avoid the quantization noise of block floating
// point while keeping the datapath narrow.
//
// Values are stored in their 16-bit wire format (type Num). Arithmetic is
// performed by converting through float32, which is exact for binary16
// operands, and rounding the result back to binary16 with round-to-nearest-
// even. This matches the behaviour of a hardware FP16 unit with a single
// rounding at the end of each operation.
package fp16

import (
	"math"
	"math/bits"
)

// Num is an IEEE-754 binary16 value in wire format:
// 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
type Num uint16

// PositiveZero is binary16 +0.
const PositiveZero Num = 0x0000

// FromFloat32 rounds a float32 to the nearest binary16 value using
// round-to-nearest-even, the IEEE default rounding mode.
func FromFloat32(f float32) Num {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xFF
	man := b & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf or NaN
		if man != 0 {
			return Num(sign | 0x7E00) // quiet NaN, preserve sign
		}
		return Num(sign | 0x7C00)
	case exp == 0 && man == 0:
		return Num(sign) // signed zero
	}

	// Unbias float32 exponent, re-bias for binary16 (bias 15).
	e := exp - 127 + 15
	switch {
	case e >= 0x1F:
		// Overflow to infinity.
		return Num(sign | 0x7C00)
	case e <= 0:
		// Subnormal (or underflow to zero). Shift the 24-bit significand
		// (implicit leading 1) right so the exponent becomes 1-15.
		if e < -10 {
			return Num(sign) // underflows below the smallest subnormal
		}
		m := man | 0x800000 // add implicit bit
		shift := uint32(14 - e)
		half := uint32(1) << (shift - 1)
		rounded := m + half
		// Round-to-nearest-even: if exactly halfway, clear the LSB.
		if m&(2*half-1) == half && rounded>>shift&1 == 1 {
			rounded--
		}
		return Num(sign | uint16(rounded>>shift))
	default:
		// Normal number: round 23-bit mantissa to 10 bits.
		const shift = 13
		half := uint32(1) << (shift - 1)
		rounded := man + half
		if man&(2*half-1) == half {
			rounded = man // tie: round to even below
			if man>>shift&1 == 1 {
				rounded = man + half
			} else {
				rounded = man
			}
		}
		m16 := rounded >> shift
		if m16 == 0x400 { // mantissa overflowed into exponent
			m16 = 0
			e++
			if e >= 0x1F {
				return Num(sign | 0x7C00)
			}
		}
		return Num(sign | uint16(e)<<10 | uint16(m16))
	}
}

// Float32 converts a binary16 value to float32 exactly.
func (n Num) Float32() float32 {
	sign := uint32(n&0x8000) << 16
	exp := uint32(n>>10) & 0x1F
	man := uint32(n) & 0x3FF

	switch {
	case exp == 0x1F: // Inf / NaN
		if man != 0 {
			return math.Float32frombits(sign | 0x7FC00000 | man<<13)
		}
		return math.Float32frombits(sign | 0x7F800000)
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= 0x3FF
		return math.Float32frombits(sign | e<<23 | man<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | man<<13)
	}
}

// FromFloat64 rounds a float64 to binary32 and then to binary16, each to
// nearest even. The two roundings can differ from one: 1 + 2^-11 + 2^-40
// rounds to the binary32 1 + 2^-11, a binary16 tie, and so to 0x3C00, where
// the binary16 nearest it is 0x3C01. Every weight image and golden is built
// through this composition, and FromDecimal matches it.
func FromFloat64(f float64) Num { return FromFloat32(float32(f)) }

// FromDecimal returns FromFloat64(strconv.ParseFloat(s, 64)) for a decimal
// text s of the value w·10^e, and true; or false when it cannot tell
// cheaply: |e| > 22, or w·10^e within 2^-50 of a point where binary32
// rounding changes.
func FromDecimal(w uint64, e int) (Num, bool) {
	if e < -22 || e > 22 {
		return 0, false
	}
	// math.Pow10 is exact up to 10^22.
	y := float64(w)
	if e < 0 {
		y /= math.Pow10(-e)
	} else {
		y *= math.Pow10(e)
	}
	// Two roundings put y within 2^-52 of w·10^e, relatively, so the float64
	// nearest w·10^e, which ParseFloat returns, lies in [lo, hi]. Rounding
	// is monotone: when both ends round to one binary32, that float64 does.
	lo, hi := float32(y*(1-0x1p-50)), float32(y*(1+0x1p-50))
	if lo != hi {
		return 0, false
	}
	return FromFloat32(lo), true
}

// AppendDecimal appends v's exact decimal expansion and reports true when
// v is 0 or 1e-6 ≤ |v| < 1e15 and the expansion has at most 15 significant
// digits: distinct decimals of 15 digits round to distinct float64s, so no
// shorter one names v, and this is strconv.AppendFloat(b, v, 'f', -1, 64),
// encoding/json's text. Otherwise it appends nothing and reports false. A
// binary16 value is m·2^q with m < 2^11: every one from 2^-6 up qualifies.
func AppendDecimal(b []byte, v float64) ([]byte, bool) {
	a := math.Abs(v)
	if a != 0 && !(a >= 1e-6 && a < 1e15) {
		return b, false
	}
	// a = m·2^-k with m odd has the digits d = m·5^k, k of them after the
	// point; 5^k is 10^k, a uint64 up to k = 19, shifted k bits right.
	d, k := uint64(0), 0
	if fb := math.Float64bits(a); a != 0 {
		m := fb&(1<<52-1) | 1<<52
		tz := bits.TrailingZeros64(m)
		switch m, k = m>>tz, 1075-int(fb>>52)-tz; {
		case k <= 0:
			d, k = m<<-k, 0
		case k > 19:
			return b, false
		default:
			hi, lo := bits.Mul64(m, uint64(math.Pow10(k))>>k)
			if hi != 0 || lo >= 1e15 {
				return b, false
			}
			d = lo
		}
	}
	// Write d right to left, the point k digits in, at least one digit
	// before it.
	var buf [24]byte
	i := len(buf)
	for j := 0; d > 0 || j <= k; j++ {
		if j == k && k > 0 {
			i--
			buf[i] = '.'
		}
		i--
		buf[i] = byte('0' + d%10)
		d /= 10
	}
	if math.Signbit(v) {
		i--
		buf[i] = '-'
	}
	return append(b, buf[i:]...), true
}

// Float64 converts to float64 exactly.
func (n Num) Float64() float64 { return float64(n.Float32()) }

// IsNaN reports whether n is a NaN.
func (n Num) IsNaN() bool { return n&0x7C00 == 0x7C00 && n&0x3FF != 0 }

// IsFinite reports whether n is neither an infinity nor a NaN.
func (n Num) IsFinite() bool { return n&0x7C00 != 0x7C00 }

// Add returns a+b rounded to binary16.
func Add(a, b Num) Num { return FromFloat32(a.Float32() + b.Float32()) }

// Sub returns a-b rounded to binary16.
func Sub(a, b Num) Num { return FromFloat32(a.Float32() - b.Float32()) }

// Mul returns a*b rounded to binary16.
func Mul(a, b Num) Num { return FromFloat32(a.Float32() * b.Float32()) }

// Sigmoid returns 1/(1+exp(-n)) rounded to binary16, the accelerator's
// v_sigm activation.
func Sigmoid(n Num) Num {
	return FromFloat64(1 / (1 + math.Exp(-n.Float64())))
}

// Tanh returns tanh(n) rounded to binary16, the accelerator's v_tanh
// activation.
func Tanh(n Num) Num {
	return FromFloat64(math.Tanh(n.Float64()))
}

// Exp returns e^n rounded to binary16, the accelerator's v_exp
// activation (overflow saturates to +Inf per IEEE conversion).
func Exp(n Num) Num {
	return FromFloat64(math.Exp(n.Float64()))
}

// Recip returns 1/n rounded to binary16, the accelerator's v_recip
// activation (1/0 is +Inf, matching IEEE division).
func Recip(n Num) Num {
	return FromFloat64(1 / n.Float64())
}

// Less reports a < b with IEEE semantics (NaN compares false).
func Less(a, b Num) bool {
	if a.IsNaN() || b.IsNaN() {
		return false
	}
	return a.Float32() < b.Float32()
}

// FromSlice64Into rounds xs element-wise into dst, which must be at least
// as long as xs.
func FromSlice64Into(dst []Num, xs []float64) {
	for i, x := range xs {
		dst[i] = FromFloat64(x)
	}
}

// ToSlice64Into widens ns element-wise into dst, which must be at least as
// long as ns.
func ToSlice64Into(dst []float64, ns []Num) {
	for i, n := range ns {
		dst[i] = n.Float64()
	}
}
