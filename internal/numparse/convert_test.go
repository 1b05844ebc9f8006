package numparse

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// TestPow10Table recomputes every entry of the generated table with
// math/big: the 128 most significant bits of 10^e, rounded down.
func TestPow10Table(t *testing.T) {
	ten := big.NewInt(10)
	one := big.NewInt(1)
	for e := minExp10; e <= maxExp10; e++ {
		// 10^e·2^s for the s that puts the top bit at 2^127.
		p := new(big.Int).Exp(ten, big.NewInt(int64(abs(e))), nil)
		var v big.Int
		if e >= 0 {
			v.Set(p)
			if s := v.BitLen() - 128; s > 0 {
				v.Rsh(&v, uint(s))
			} else {
				v.Lsh(&v, uint(-s))
			}
		} else {
			v.Lsh(one, 2000) // far more bits than the 128 kept
			v.Quo(&v, p)
			v.Rsh(&v, uint(v.BitLen()-128))
		}
		got := new(big.Int).Lsh(new(big.Int).SetUint64(pow10[e-minExp10][1]), 64)
		got.Or(got, new(big.Int).SetUint64(pow10[e-minExp10][0]))
		if got.Cmp(&v) != 0 {
			t.Fatalf("pow10 for 1e%d = %#x, want %#x", e, got, &v)
		}
	}
}

func abs(e int) int {
	if e < 0 {
		return -e
	}
	return e
}

// checkParse holds ParseFloat to strconv.ParseFloat on s: the value's
// bits (so −0 and ±Inf on overflow count), whether there is an error,
// and the error's Err and Num.
func checkParse(t *testing.T, s string) {
	t.Helper()
	want, werr := strconv.ParseFloat(s, 64)
	got, gerr := ParseFloat([]byte(s))
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ParseFloat(%q) = %v (%#x), strconv gives %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("ParseFloat(%q) error %v, strconv's %v", s, gerr, werr)
	}
	if werr != nil {
		var g, w *strconv.NumError
		if !errors.As(gerr, &g) || !errors.As(werr, &w) || g.Err != w.Err || g.Num != w.Num || g.Func != w.Func {
			t.Fatalf("ParseFloat(%q) error %#v, strconv's %#v", s, gerr, werr)
		}
	}
}

// seeds are the inputs FuzzParseFloat starts from: the 19/20-digit
// boundary, ties and near-ties, the subnormal and normal limits,
// overflow, and the syntax only strconv handles.
var seeds = []string{
	"0", "-0", "+0", "0.0", "-0.000", "0e999999", "1", "-1", "39", "0.5", ".5", "5.", "+.5", "-.5e-3",
	"1234567890123456789", "12345678901234567890", "1234567890123456789.5", "0.12345678901234567891",
	"9007199254740992", "9007199254740993", "9007199254740993.000000000000000000001", "9007199254740995",
	"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e308", "1e309", "1e400", "-1e400",
	"1e23", "8.41e21", "1e22", "1e-22", "123456789e-30", "0.1", "0.3", "3.14159265358979323846264338327950288",
	"100000000000000000000000", "1e+5", "1E5", "1e-5", "7e-10",
	"0x1p-2", "0X1.8P1", "inf", "-Inf", "+infinity", "NaN", "nan", "1_0", "0x1_0p0",
	"", "-", "+", ".", "e5", "1e", "1e+", "1.2.3", "1..2", "--1", "1 ", " 1", "１",
}

// TestParseFloatSeeds checks the seed corpus, and ParseFloat against
// strconv on every decimal rendering of a few hundred thousand seeded
// random float64s: shortest, 17 and 20 significant digits, and fixed
// point.
func TestParseFloatSeeds(t *testing.T) {
	for _, s := range seeds {
		checkParse(t, s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		var f float64
		switch i % 4 {
		case 0:
			f = math.Float64frombits(rng.Uint64())
		case 1:
			f = rng.Float64() * 100
		case 2:
			f = float64(rng.Intn(1000000)) / 1000
		default:
			f = math.Ldexp(rng.Float64(), rng.Intn(2100)-1075)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkParse(t, strconv.FormatFloat(f, 'g', -1, 64))
		checkParse(t, strconv.FormatFloat(f, 'e', 16, 64))
		checkParse(t, strconv.FormatFloat(f, 'e', 19, 64))
		if math.Abs(f) < 1e30 {
			checkParse(t, strconv.FormatFloat(f, 'f', -1, 64))
		}
	}
}

// TestDecimalFallsBack: the fast paths decline exactly the inputs only
// strconv's slow path can settle, so the fallback is exercised.
func TestDecimalFallsBack(t *testing.T) {
	for _, s := range []string{"9007199254740993.000000000000000000001", "2.4703282292062327e-324", "1e309", "1e-400", "0x1p-2", "inf", "1_0"} {
		if _, ok := parseDecimal([]byte(s)); ok {
			t.Errorf("parseDecimal(%q) decided a value strconv's slow path must settle", s)
		}
	}
	for _, s := range []string{"39", "0.1", "1e23", "12345678901234567890", "-0", "2.2250738585072014e-308"} {
		if _, ok := parseDecimal([]byte(s)); !ok {
			t.Errorf("parseDecimal(%q) fell back to strconv", s)
		}
	}
}

// TestParseFloatAllocs: the decimal path allocates nothing.
func TestParseFloatAllocs(t *testing.T) {
	in := [][]byte{[]byte("39"), []byte("0.12345678901234567"), []byte("-2.5e-8"), []byte("12345678901234567890123")}
	if n := testing.AllocsPerRun(100, func() {
		for _, s := range in {
			if _, err := ParseFloat(s); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("ParseFloat allocs/op = %v, want 0", n)
	}
}

// FuzzParseFloat holds ParseFloat to strconv.ParseFloat(s, 64) on every
// input: value bits (−0, and ±Inf or 0 on a range error, included),
// error presence, and the NumError's Err, Num and Func.
func FuzzParseFloat(f *testing.F) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParse(t, s)
	})
}

// BenchmarkParseFloat compares ParseFloat with strconv.ParseFloat on
// the shapes the decoders meet: small integers, 17-digit fractions
// and exponent forms.
func BenchmarkParseFloat(b *testing.B) {
	in := [][]byte{[]byte("39"), []byte("13"), []byte("0.43478260869565216"), []byte("4.1293378125e+03"), []byte("-2.5e-8"), []byte("12345.678")}
	b.Run("numparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range in {
				if _, err := ParseFloat(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range in {
				if _, err := strconv.ParseFloat(string(s), 64); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
