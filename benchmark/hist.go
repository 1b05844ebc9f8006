package main

import "math/bits"

// Hist is a log-linear histogram of non-negative int64 samples
// (nanoseconds, in practice). Values below 64 are kept exactly; larger
// values fall into 32 equal sub-buckets per power of two, so a bucket
// is never wider than 1/32 of its lower edge and a quantile read from
// its midpoint is within 1/64 of the true sample.
type Hist struct {
	counts []uint64
	n      uint64
	max    int64
}

const (
	histSub   = 32
	histExact = 2 * histSub
	// histBuckets covers every exponent up to 62, the largest of a
	// positive int64.
	histBuckets = histExact + (63-6)*histSub
)

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{counts: make([]uint64, histBuckets)} }

func histBucket(v int64) int {
	if v < histExact {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	sub := int(v>>(e-5)) - histSub
	return histExact + (e-6)*histSub + sub
}

// histMid is the midpoint of bucket i's value range.
func histMid(i int) float64 {
	if i < histExact {
		return float64(i)
	}
	e := (i-histExact)/histSub + 6
	sub := (i - histExact) % histSub
	width := int64(1) << (e - 5)
	lo := int64(histSub+sub) * width
	return float64(lo) + float64(width)/2
}

// Record adds one sample.
func (h *Hist) Record(v int64) {
	h.counts[histBucket(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Count is the number of samples recorded.
func (h *Hist) Count() uint64 { return h.n }

// Quantile returns the nearest-rank q-quantile: the sample of rank
// ⌈q·n⌉, read from its bucket's midpoint and capped at the exact
// maximum. It returns 0 when empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return min(histMid(i), float64(h.max))
		}
	}
	return float64(h.max)
}
