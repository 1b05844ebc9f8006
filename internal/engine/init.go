package engine

import (
	"fmt"

	"repro/internal/stats"
)

// InitMethod selects how a solver's initial clustering is chosen. It
// lives in the engine so every solver seeds through one
// implementation. Only FairKM lets a caller choose (core.Config.Init);
// the K-Means and ZGYA baselines always start from k-means++, FairKM's
// default, so the three begin from comparable configurations, the
// premise of the paper's evaluation.
type InitMethod int

const (
	// KMeansPlusPlus picks initial centroids with the k-means++
	// D²-weighting scheme (Arthur & Vassilvitskii 2007). It is the
	// zero value, i.e. the default of every solver in this repository.
	KMeansPlusPlus InitMethod = iota
	// RandomPartition assigns every point to a uniformly random
	// cluster and repairs empty clusters, matching "Initialize k
	// clusters randomly" in FairKM's Algorithm 1.
	RandomPartition
	// RandomPoints picks k distinct data points as initial centroids.
	RandomPoints
)

// String implements fmt.Stringer.
func (m InitMethod) String() string {
	switch m {
	case KMeansPlusPlus:
		return "kmeans++"
	case RandomPartition:
		return "random-partition"
	case RandomPoints:
		return "random-points"
	default:
		return fmt.Sprintf("InitMethod(%d)", int(m))
	}
}

// InitAssignmentWeighted produces a starting partition of the feature
// rows into k clusters: nearest-centroid assignment for the centroid-
// seeded methods, a repaired random partition for RandomPartition. The
// RNG stream is consumed in a fixed order per method, so (features,
// weights, k, method, seed) fully determines the result. A method
// outside the three constants runs as RandomPartition; callers that
// accept a method from outside validate it first.
//
// weights == nil means unit weights. The k-means++ D² sampling scales
// each candidate's distance by its mass (a row standing for w points is
// w times as likely to seed a centroid), while RandomPoints and
// RandomPartition stay row-level. Unit weights consume the RNG stream
// identically to nil weights, so the two are bit-identical — the
// property the weighted solvers' unit-parity contract rests on.
func InitAssignmentWeighted(features [][]float64, weights []float64, k int, method InitMethod, rng *stats.RNG) []int {
	assign := make([]int, len(features))
	var centroids [][]float64
	switch method {
	case KMeansPlusPlus:
		centroids = PlusPlusCentroidsWeighted(features, weights, k, rng)
	case RandomPoints:
		centroids = make([][]float64, k)
		for c, p := range rng.SampleWithoutReplacement(len(features), k) {
			centroids[c] = features[p]
		}
	default:
		RandomPartitionAssign(rng, assign, k) // Algorithm 1 step 1
		return assign
	}
	for i, x := range features {
		assign[i], _ = stats.NearestCentroidScan(x, centroids)
	}
	return assign
}

// RandomPartitionAssign fills assign uniformly at random, then repairs
// any empty cluster by stealing a random point from a cluster with more
// than one member, so every cluster is non-empty whenever len(assign)
// >= k. The repair preserves the k-cluster invariants solvers assume
// from their first sweep.
func RandomPartitionAssign(rng *stats.RNG, assign []int, k int) {
	for i := range assign {
		assign[i] = rng.Intn(k)
	}
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	for c := 0; c < k; c++ {
		for sizes[c] == 0 {
			i := rng.Intn(len(assign))
			if sizes[assign[i]] > 1 {
				sizes[assign[i]]--
				assign[i] = c
				sizes[c]++
			}
		}
	}
}

// PlusPlusCentroidsWeighted is the one k-means++ sampler (Arthur &
// Vassilvitskii 2007), with mass-scaled D² sampling: candidate
// probabilities are w_i·d(x_i)² (weights == nil means unit weights and
// uses d(x_i)² unscaled). The first centroid is drawn uniformly over
// rows whatever the weights, so unit weights replay the unweighted RNG
// stream bit-for-bit (w·d² with w = 1 is an IEEE no-op); for genuinely
// weighted rows the subsequent D² draws carry all the mass sensitivity
// that matters.
func PlusPlusCentroidsWeighted(features [][]float64, weights []float64, k int, rng *stats.RNG) [][]float64 {
	n := len(features)
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, stats.Clone(features[first]))
	// d2 holds each row's sampling mass: SqDist to its nearest chosen
	// centroid, times the row's weight when weights are set.
	d2 := make([]float64, n)
	for i, x := range features {
		d2[i] = stats.SqDist(x, centroids[0])
		if weights != nil {
			d2[i] *= weights[i]
		}
	}
	for len(centroids) < k {
		total := stats.Sum(d2)
		var next int
		if total <= 0 {
			// All remaining points coincide with chosen centroids; fall
			// back to uniform choice to keep the procedure total.
			next = rng.Intn(n)
		} else {
			next = rng.Categorical(d2)
		}
		c := stats.Clone(features[next])
		centroids = append(centroids, c)
		for i, x := range features {
			d := stats.SqDist(x, c)
			if weights != nil {
				d *= weights[i]
			}
			if d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}
