package stats

//fairvet:floateq n==0 is an exact emptiness check (n = float64(len(xs)))

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n), or 0
// for slices with fewer than one element.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Median returns the median of xs without mutating it. It panics on an
// empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		panic("stats: Median of empty slice")
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return 0.5 * (cp[n/2-1] + cp[n/2])
}

// Normalize scales a non-negative weight vector in place so it sums to
// one, returning it. A zero vector becomes uniform.
func Normalize(w []float64) []float64 {
	total := Sum(w)
	if total <= 0 {
		u := 1.0 / float64(len(w))
		for i := range w {
			w[i] = u
		}
		return w
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// MeanStd returns the mean and population standard deviation of xs in a
// single pass.
func MeanStd(xs []float64) (mean, std float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	s, sq := 0.0, 0.0
	for _, x := range xs {
		s += x
		sq += x * x
	}
	mean = s / n
	v := sq/n - mean*mean
	if v < 0 {
		v = 0 // guard tiny negative from floating-point cancellation
	}
	return mean, math.Sqrt(v)
}
