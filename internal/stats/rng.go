// Package stats provides deterministic random-number utilities, sampling
// routines and descriptive statistics used across the fairclust repository.
//
// All randomized components in this repository (dataset generators,
// clustering initializations, embedding training) accept an explicit seed
// and derive their randomness from an *RNG created here, so every
// experiment is reproducible bit-for-bit given the same seed.
package stats

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand.Rand with convenience methods used by the
// generators and clustering algorithms. It is not safe for concurrent
// use; create one RNG per goroutine.
type RNG struct {
	r *rand.Rand
	// zipf caches the cumulative Zipf weight table per (n, s): long-
	// tailed generators draw from the same distribution thousands of
	// times, and rebuilding the O(n) weight vector per draw made those
	// loops quadratic.
	zipf map[zipfKey]*Cumulative
}

type zipfKey struct {
	n int
	s float64
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	//fairvet:ignore nodeterminism -- this IS the sanctioned seeded wrapper every other package must use
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Intn returns a uniform pseudo-random int in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform pseudo-random float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Gaussian returns a normal variate with the given mean and standard
// deviation.
func (g *RNG) Gaussian(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// Shuffle pseudo-randomizes the order of elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Fork returns a new RNG deterministically derived from this one.
// Forking lets independent components (e.g. one RNG per experiment
// repetition) consume randomness without interleaving their streams.
func (g *RNG) Fork() *RNG { return NewRNG(g.r.Int63()) }

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Categorical draws an index from the (not necessarily normalized)
// non-negative weight vector w. It panics if w is empty or sums to a
// non-positive value.
func (g *RNG) Categorical(w []float64) int {
	if len(w) == 0 {
		panic("stats: Categorical with empty weights")
	}
	total := 0.0
	for _, v := range w {
		if v < 0 {
			panic("stats: Categorical with negative weight")
		}
		total += v
	}
	if total <= 0 {
		panic("stats: Categorical with non-positive total weight")
	}
	u := g.r.Float64() * total
	acc := 0.0
	for i, v := range w {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

// SampleWithoutReplacement returns m distinct indices drawn uniformly
// from [0, n). It panics if m > n or m < 0.
func (g *RNG) SampleWithoutReplacement(n, m int) []int {
	if m < 0 || m > n {
		panic("stats: SampleWithoutReplacement with m out of range")
	}
	// Partial Fisher-Yates: O(n) memory, O(m) swaps.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < m; i++ {
		j := i + g.r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:m]
}

// Zipf returns a draw from a Zipf-like distribution over [0, n) with
// exponent s >= 1. Used to model long-tailed categorical attributes such
// as country of origin.
//
// The cumulative weight table is cached per (n, s) on the RNG and each
// draw is a binary search, so a sequence of m draws costs O(n + m·log n)
// instead of the O(n·m) of rebuilding ZipfWeights every call. Draws are
// bit-identical to the historical Categorical(ZipfWeights(n, s)) path.
func (g *RNG) Zipf(n int, s float64) int {
	key := zipfKey{n: n, s: s}
	cum := g.zipf[key]
	if cum == nil {
		cum = NewCumulative(ZipfWeights(n, s))
		if g.zipf == nil {
			g.zipf = map[zipfKey]*Cumulative{}
		}
		g.zipf[key] = cum
	}
	return cum.Sample(g)
}

// Cumulative is a prefix-sum table over a non-negative weight vector,
// supporting O(log n) categorical draws. It replaces repeated
// RNG.Categorical calls over the same weights (O(n) per draw): build
// once, then Sample per draw. Samples are bit-identical to Categorical
// on the same weights because the prefix sums accumulate in the same
// left-to-right order Categorical scans.
type Cumulative struct {
	prefix []float64
}

// NewCumulative validates w and builds the prefix-sum table. It panics
// on empty, negative or non-positive-total weights — the same contract
// as Categorical, checked once instead of per draw.
func NewCumulative(w []float64) *Cumulative {
	if len(w) == 0 {
		panic("stats: Cumulative with empty weights")
	}
	prefix := make([]float64, len(w))
	acc := 0.0
	for i, v := range w {
		if v < 0 || math.IsNaN(v) {
			panic("stats: Cumulative with negative weight")
		}
		acc += v
		prefix[i] = acc
	}
	if !(acc > 0) || math.IsInf(acc, 0) {
		panic("stats: Cumulative with non-positive total weight")
	}
	return &Cumulative{prefix: prefix}
}

// Total returns the summed weight.
func (c *Cumulative) Total() float64 { return c.prefix[len(c.prefix)-1] }

// Sample draws an index with probability proportional to its weight,
// consuming exactly one Float64 from g (like Categorical).
func (c *Cumulative) Sample(g *RNG) int {
	u := g.r.Float64() * c.Total()
	// Smallest i with prefix[i] > u — Categorical's `u < acc` rule.
	lo, hi := 0, len(c.prefix)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.prefix[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ZipfWeights returns the (unnormalized) Zipf weight vector 1/rank^s for
// ranks 1..n.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1.0 / math.Pow(float64(i+1), s)
	}
	return w
}
