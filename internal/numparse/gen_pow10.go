//go:build ignore

// gen_pow10 writes pow10.go, the 128-bit power-of-ten table the
// Eisel–Lemire conversion multiplies by. Run it from this directory:
//
//	go run gen_pow10.go
//
// TestPow10Table recomputes every entry with math/big, so an edited or
// stale table fails the tests rather than a conversion.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"math/big"
	"os"
)

// The table's range, as minExp10 and maxExp10 in convert.go: 10^-348
// is below the smallest subnormal times 10^19, 10^347 above the
// largest float64.
const minExp10, maxExp10 = -348, 347

// bits128 returns the 128 most significant bits of 10^e, rounded down.
func bits128(e int) (lo, hi uint64) {
	ten := big.NewInt(10)
	var v big.Int
	if e >= 0 {
		v.Exp(ten, big.NewInt(int64(e)), nil)
		if n := v.BitLen(); n > 128 {
			v.Rsh(&v, uint(n-128))
		} else {
			v.Lsh(&v, uint(128-n))
		}
	} else {
		// floor(2^(127+n) / 10^-e), n the bit length of 10^-e, lies in
		// [2^127, 2^128): 10^-e is never a power of two.
		var d big.Int
		d.Exp(ten, big.NewInt(int64(-e)), nil)
		v.Lsh(big.NewInt(1), uint(127+d.BitLen()))
		v.Quo(&v, &d)
	}
	mask := new(big.Int).SetUint64(^uint64(0))
	lo = new(big.Int).And(&v, mask).Uint64()
	hi = new(big.Int).Rsh(&v, 64).Uint64()
	return lo, hi
}

func main() {
	var b bytes.Buffer
	b.WriteString(`// Code generated by gen_pow10.go; DO NOT EDIT.

package numparse

// pow10 holds, for each e in [minExp10, maxExp10], the 128 most
// significant bits of 10^e, rounded down, as {low, high} 64-bit words;
// the top bit of high is set.
var pow10 = [maxExp10 - minExp10 + 1][2]uint64{
`)
	for e := minExp10; e <= maxExp10; e++ {
		lo, hi := bits128(e)
		fmt.Fprintf(&b, "\t{0x%016X, 0x%016X}, // 1e%d\n", lo, hi, e)
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("pow10.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}
