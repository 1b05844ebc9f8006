package telemetry

import (
	"math"
	"testing"
	"time"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for _, v := range []time.Duration{0, 1, 5, 31} {
		h.Record(v)
	}
	if h.Count() != 4 || h.Min() != 0 || h.Max() != 31 {
		t.Fatalf("count/min/max = %d/%v/%v", h.Count(), h.Min(), h.Max())
	}
	// Below 32ns buckets are exact.
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %v, want 1ns (nearest rank of {0,1,5,31})", got)
	}
	if got := h.Quantile(1.0); got != 31 {
		t.Errorf("p100 = %v, want 31", got)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	values := []time.Duration{
		123 * time.Nanosecond,
		45 * time.Microsecond,
		3 * time.Millisecond,
		700 * time.Millisecond,
		12 * time.Second,
	}
	for _, v := range values {
		var single Histogram
		single.Record(v)
		got := single.Quantile(0.99)
		if got < v {
			t.Errorf("quantile %v under-reports recorded %v", got, v)
		}
		if rel := float64(got-v) / float64(v); rel > 1.0/histSubBuckets {
			t.Errorf("quantile %v off recorded %v by %.2f%% (> %.2f%% bound)", got, v, 100*rel, 100.0/histSubBuckets)
		}
	}
}

// TestHistogramQuantileRank pins nearest-rank semantics on a known
// sample: 100 values 1ms..100ms, p99 must cover the 99th value.
func TestHistogramQuantileRank(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p50 < 50*time.Millisecond || float64(p50) > 50e6*1.04 {
		t.Errorf("p50 = %v, want ≈50ms (≥ true rank, ≤ +1 bucket)", p50)
	}
	if p99 < 99*time.Millisecond || float64(p99) > 99e6*1.04 {
		t.Errorf("p99 = %v, want ≈99ms", p99)
	}
	if h.Quantile(1) > h.Max() {
		t.Errorf("p100 %v exceeds max %v", h.Quantile(1), h.Max())
	}
	if mean := h.Mean(); mean < 50*time.Millisecond || mean > 51*time.Millisecond {
		t.Errorf("mean = %v, want 50.5ms", mean)
	}
}

// TestHistogramBucketLayout sanity-checks the bucket functions: indexes
// are monotone in the value and every value lands at or below its
// bucket's upper bound.
func TestHistogramBucketLayout(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1 << 20, 1<<20 + 12345, math.MaxInt32} {
		i := bucketIndex(v)
		if i < prev {
			t.Errorf("bucketIndex(%d) = %d < previous %d (not monotone)", v, i, prev)
		}
		prev = i
		if hi := bucketHigh(i); v > hi {
			t.Errorf("value %d above its bucket %d upper bound %d", v, i, hi)
		}
		if i > 0 {
			if lowHi := bucketHigh(i - 1); v <= lowHi {
				t.Errorf("value %d also fits bucket %d (bound %d): buckets overlap", v, i-1, lowHi)
			}
		}
	}
}
