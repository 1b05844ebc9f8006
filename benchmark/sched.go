package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// PoissonSchedule returns the send offsets of an open-loop Poisson
// arrival process at rate arrivals per second over dur. The same seed
// always yields the same schedule: math/rand's seeded sequence is fixed
// by the Go 1 compatibility promise.
func PoissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return out
		}
		out = append(out, off)
	}
}

// Fingerprint hashes a schedule, so two runs can show they offered
// identical traffic.
func Fingerprint(sched []time.Duration) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range sched {
		for i := range b {
			b[i] = byte(uint64(d) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// zipfSizes draws n batch sizes in [1, max] with P(s) ∝ s^-exponent.
func zipfSizes(rng *rand.Rand, n, max int, exponent float64) []int {
	cdf := make([]float64, max)
	var total float64
	for s := 1; s <= max; s++ {
		total += math.Pow(float64(s), -exponent)
		cdf[s-1] = total
	}
	out := make([]int, n)
	for i := range out {
		u := rng.Float64() * total
		s := 0
		for s < max-1 && cdf[s] < u {
			s++
		}
		out[i] = s + 1
	}
	return out
}
