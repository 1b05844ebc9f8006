// Package telemetry is the repository's stdlib-only observability
// layer: a typed metric registry with a conformant Prometheus text
// exposition writer (registry.go, prometheus.go), HDR-style log-linear
// latency histograms in single-writer (Histogram) and lock-free
// concurrent (AtomicHistogram) flavors, per-request span traces with a
// bounded flight recorder of the slowest requests (trace.go), and
// JSONL training run journals driven by the engine's per-iteration
// Observer hook (journal.go).
//
// # Determinism
//
// The package never reads the wall clock: every duration is handed in
// by the caller (serve measures request stages, the engine stamps
// IterEvent.Elapsed). That makes telemetry itself a deterministic
// package under fairvet's nodeterminism pass — given the same recorded
// values, every exposition and journal byte is reproducible — and
// confines nondeterminism to the measurement sites, which carry their
// own justified ignores.
package telemetry

import (
	"math"
	"math/bits"
	"time"
)

// histSubBuckets is the linear resolution inside each power-of-two
// range: 32 sub-buckets bound the relative quantization error by
// 1/32 ≈ 3%, the usual HDR-histogram two-significant-digits regime.
const histSubBuckets = 32

// Histogram is an HDR-style log-linear latency histogram: exact counts
// below 32ns, then 32 linear sub-buckets per power-of-two range, so the
// whole nanosecond-to-minutes span fits in a couple of thousand fixed
// buckets with ≤3% relative error. Unlike a reservoir or a quantile
// ring it keeps the FULL distribution — tail quantiles are read from
// cumulative counts, not a sample that coordinated omission can bias.
//
// The zero value is ready to use. Not safe for concurrent use — the
// caller serializes writes (internal/load's collector holds one under
// its mutex); concurrent recording sites use AtomicHistogram and read
// back a *Histogram via Snapshot.
type Histogram struct {
	counts []uint64
	n      uint64
	sum    int64
	min    int64
	max    int64
}

// bucketIndex maps a non-negative value to its bucket. Values < 32 map
// to themselves; a value with highest set bit b ≥ 5 shifts down to a
// 5-bit mantissa m ∈ [32,64), landing in bucket 32·(b−4)+(m−32)... laid
// out contiguously this is simply 32·e + (v>>e) with e = b−4.
func bucketIndex(v int64) int {
	if v < histSubBuckets {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 6 // v>>e ∈ [32, 64)
	return e<<5 + int(v>>uint(e))
}

// bucketHigh is the largest value mapping to bucket i — quantiles
// report it so they never under-state a latency.
func bucketHigh(i int) int64 {
	if i < histSubBuckets {
		return int64(i)
	}
	e := i>>5 - 1
	m := int64(i&31 + histSubBuckets)
	return (m+1)<<uint(e) - 1
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	v := d.Nanoseconds()
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.n))
}

// Quantile returns the q-quantile (nearest-rank, the ⌈q·n⌉-th smallest
// observation's bucket upper bound, clamped to the observed max so the
// quantization never exceeds the true maximum). q outside (0,1] is
// clamped.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketHigh(i)
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// Summary condenses the histogram for reports.
type Summary struct {
	Count uint64        `json:"count"`
	Min   time.Duration `json:"min_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Summarize snapshots the standard quantile set.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.n,
		Min:   h.Min(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}
