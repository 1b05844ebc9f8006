// Package numparse converts decimal numbers to float64 exactly as
// strconv.ParseFloat(s, 64) does, without scanning the digits twice:
// the byte-level decoders (the CSV tokenizer's cells and the
// /v1/assign JSON decoder) feed each digit to a Decimal during their
// own grammar scan, then ask it for the float.
//
// A Decimal keeps up to 19 significant digits and the decimal exponent,
// as strconv's own scan does. Float converts them by Clinger's exact
// path when the mantissa and the power of ten are both exact float64s,
// else by the Eisel–Lemire algorithm (Lemire, "Number Parsing at a
// Gigabyte per Second", 2021) over the generated 128-bit power-of-ten
// table in pow10.go. Both are correctly rounded, so a result equals
// strconv's bit for bit. Float reports ok=false where neither decides —
// digits past the 19th that could change the rounding, a halfway case,
// an exponent outside the table, overflow or a subnormal result — and
// the caller then hands the same bytes to strconv.ParseFloat, so every
// such value and every error is strconv's own. ParseFloat packages
// the scan and the fallback for a whole cell.
package numparse

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// The exponents pow10 covers: 10^-348 is below the smallest subnormal
// times 10^19, 10^347 above the largest float64.
const (
	minExp10 = -348
	maxExp10 = 347
)

// maxDigits is how many significant digits a Decimal keeps: the most
// any uint64 holds.
const maxDigits = 19

// Decimal accumulates a decimal number's significant digits while a
// grammar scan walks them. Its zero value is the number zero. Feed it
// the digit run before the decimal point with IntDigits and the run
// after it with FracDigits; the sign and the exponent go to Float.
type Decimal struct {
	mant   uint64 // the first ndMant significant digits
	ndMant int
	dp     int  // the decimal point's place, in digits after the first significant one
	trunc  bool // a nonzero digit was dropped after the first maxDigits
}

// IntDigits adds the run of digits that starts s, all before the
// decimal point, and returns the run's length.
//
//fairvet:hotpath
func (d *Decimal) IntDigits(s []byte) int {
	return d.digits(s, 1)
}

// FracDigits adds the run of digits that starts s, all after the
// decimal point, and returns the run's length.
//
//fairvet:hotpath
func (d *Decimal) FracDigits(s []byte) int {
	return d.digits(s, 0)
}

// digits adds a digit run; each significant digit moves the decimal
// point by intStep (1 before the point, 0 after it), and a zero ahead
// of the first significant digit moves it by intStep−1. The loops work
// on locals, so the fields stay in registers, and take eight digits at
// a time while the mantissa has room for them.
//
//fairvet:hotpath
func (d *Decimal) digits(s []byte, intStep int) int {
	mant, nd, dp, trunc := d.mant, d.ndMant, d.dp, d.trunc
	i := 0
	if nd == 0 {
		for i < len(s) && s[i] == '0' {
			dp += intStep - 1 // a leading zero
			i++
		}
	}
	for nd+8 <= maxDigits && len(s)-i >= 8 {
		v := binary.LittleEndian.Uint64(s[i:])
		if !eightDigits(v) {
			break
		}
		mant = mant*1e8 + parseEight(v)
		nd += 8
		dp += 8 * intStep
		i += 8
	}
	for ; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			break
		}
		if c == 0 && nd == 0 {
			dp += intStep - 1
			continue
		}
		dp += intStep
		if nd < maxDigits {
			mant = mant*10 + uint64(c)
			nd++
		} else if c != 0 {
			trunc = true
		}
	}
	d.mant, d.ndMant, d.dp, d.trunc = mant, nd, dp, trunc
	return i
}

// eightDigits reports whether the eight bytes of v, little-endian, are
// all ASCII digits: each high nibble is 3, and adding 6 to the low
// nibble carries into no high nibble.
func eightDigits(v uint64) bool {
	return (v&0xF0F0F0F0F0F0F0F0)|((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 == 0x3333333333333333
}

// parseEight returns the value of the eight ASCII digits in v, the
// first digit in the low byte, combining pairs, then quads, then the
// two halves with three multiplications.
func parseEight(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8 // each even byte: two digits
	v = ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return v
}

// Float returns the float64 nearest to the accumulated digits times
// 10^exp10, negated when neg, rounded as strconv.ParseFloat rounds. It
// reports ok=false when it cannot decide; the caller then converts the
// number's bytes with strconv.ParseFloat instead. A caller scanning the
// exponent should stop accumulating it past 10000, as strconv does.
//
//fairvet:hotpath
func (d Decimal) Float(neg bool, exp10 int) (f float64, ok bool) {
	if d.mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	e := d.dp + exp10 - d.ndMant
	if !d.trunc {
		if f, ok := exact(d.mant, e, neg); ok {
			return f, true
		}
	}
	f, ok = eiselLemire(d.mant, e, neg)
	if !ok || !d.trunc {
		return f, ok
	}
	// Digits were dropped: the value lies between mant and mant+1
	// units, and only a rounding both ends agree on is safe.
	up, ok := eiselLemire(d.mant+1, e, neg)
	if !ok || math.Float64bits(up) != math.Float64bits(f) {
		return 0, false
	}
	return f, true
}

// exactPow10 holds the powers of ten that are exact float64s.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exact is Clinger's fast path: when mant and 10^|e| are both exact
// float64s, one correctly rounded multiplication or division gives the
// correctly rounded result. A positive exponent past 22 first moves
// its excess into the mantissa while that product stays exact.
//
//fairvet:hotpath
func exact(mant uint64, e int, neg bool) (float64, bool) {
	if mant>>53 != 0 {
		return 0, false
	}
	f := float64(mant)
	if neg {
		f = -f
	}
	switch {
	case e == 0:
		return f, true
	case e > 0 && e <= 15+22:
		if e > 22 {
			f *= exactPow10[e-22]
			e = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * exactPow10[e], true
	case e < 0 && e >= -22:
		return f / exactPow10[-e], true
	}
	return 0, false
}

// eiselLemire converts mant·10^e (mant > 0) with one 64×128-bit
// multiplication by the truncated power of ten. It gives up (ok=false)
// when the truncation could reach the rounding bit, on an exact
// halfway case, and when the result would be subnormal, infinite or
// outside the table. The section names follow Nigel Tao's description
// of the algorithm (nigeltao.github.io/blog/2020/eisel-lemire.html).
//
//fairvet:hotpath
func eiselLemire(mant uint64, e int, neg bool) (float64, bool) {
	if e < minExp10 || e > maxExp10 {
		return 0, false
	}
	// Normalization: the mantissa's top bit set.
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	const bias = 1023
	// 217706/2^16 approximates log2(10) closely enough for every e in
	// the table.
	exp2 := uint64(217706*e>>16+64+bias) - uint64(clz)

	// Multiplication by the high 64 bits of the power.
	p := &pow10[e-minExp10]
	hi, lo := bits.Mul64(mant, p[1])

	// Wider approximation: when the low bits of the product are all
	// ones, the power's low word can still carry into them.
	if hi&0x1FF == 0x1FF && lo+mant < mant {
		yHi, yLo := bits.Mul64(mant, p[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+mant < mant {
			return 0, false
		}
		hi, lo = mHi, mLo
	}

	// Shift to 54 bits.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// Halfway ambiguity: the dropped bits are exactly one half.
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}

	// Round half to even from 54 to 53 bits.
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// exp2 ≤ 0 is subnormal, ≥ 0x7FF infinite: both go to strconv.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// ParseFloat is strconv.ParseFloat(string(s), 64): the same value, bit
// for bit, and the same error. A plain decimal — an optional sign,
// digits with at most one point, an optional exponent — converts
// without strconv whenever Float decides it; anything else (hex, inf,
// nan, underscores, malformed or out-of-range input) goes to strconv.
func ParseFloat(s []byte) (float64, error) {
	if f, ok := parseDecimal(s); ok {
		return f, nil
	}
	return strconv.ParseFloat(string(s), 64)
}

// parseDecimal scans s as a plain decimal and converts it, reporting
// ok=false for any other syntax and wherever Float does.
//
//fairvet:hotpath
func parseDecimal(s []byte) (float64, bool) {
	i := 0
	neg := false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	var d Decimal
	n := d.IntDigits(s[i:])
	i += n
	digits := n > 0
	if i < len(s) && s[i] == '.' {
		i++
		n = d.FracDigits(s[i:])
		i += n
		digits = digits || n > 0
	}
	if !digits {
		return 0, false
	}
	exp := 0
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		esign := 1
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			if s[i] == '-' {
				esign = -1
			}
			i++
		}
		start := i
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			if exp < 10000 {
				exp = exp*10 + int(s[i]-'0')
			}
		}
		if i == start {
			return 0, false
		}
		exp *= esign
	}
	if i != len(s) {
		return 0, false
	}
	return d.Float(neg, exp)
}
