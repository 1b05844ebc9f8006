package kmeans

import (
	"fmt"

	"repro/internal/stats"
)

// RunWeighted clusters weighted points: the objective is
// Σ_i w_i·‖x_i − μ_{assign(i)}‖² and centroids are weighted means.
// It is the substrate for coreset-based clustering (internal/coreset),
// where each retained point stands for w_i original points. Weights
// must be positive and finite, one per row.
//
// Run is RunWeighted with nil weights: both drive the same Lloyd
// objective through the engine — same initializers (k-means++ D²
// sampling scaled by mass), same convergence policies, same
// frozen-sweep parallelism. Two parity contracts pin the semantics:
//
//   - unit weights reproduce Run bit-for-bit (assignments, iteration
//     count and objective bits), because every w·x with w = 1 is an
//     IEEE-754 no-op and the RNG stream is consumed identically;
//   - integer weights with Config.InitCentroids fixed match running
//     Run on the explicitly duplicated dataset from the same centroids
//     (Lloyd's assign and update steps are oblivious to whether mass
//     arrives as one weighted row or w duplicate rows).
//
// Both are enforced by weighted_test.go.
func RunWeighted(features [][]float64, weights []float64, cfg Config) (*Result, error) {
	if len(weights) != len(features) {
		return nil, fmt.Errorf("kmeans: %d weights for %d points", len(weights), len(features))
	}
	return run(features, weights, cfg)
}

// weightedCentroids computes per-cluster weighted means; empty clusters
// get zero vectors. weights == nil means unit weights and skips the
// multiply (with unit weights the result is bit-identical either way:
// w·v is exact for w = 1 and the mass accumulates the same integer the
// row count would).
func weightedCentroids(features [][]float64, weights []float64, assign []int, k int) [][]float64 {
	dim := len(features[0])
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	mass := make([]float64, k)
	for i, x := range features {
		c := assign[i]
		if weights == nil {
			stats.AddTo(sums[c], x)
			mass[c]++
			continue
		}
		stats.AddScaledTo(sums[c], x, weights[i])
		mass[c] += weights[i]
	}
	for c := range sums {
		if mass[c] > 0 {
			stats.Scale(sums[c], 1/mass[c])
		}
	}
	return sums
}

// WeightedSSE returns the weighted K-Means objective; weights == nil
// is SSE.
func WeightedSSE(features [][]float64, weights []float64, assign []int, centroids [][]float64) float64 {
	s := 0.0
	for i, x := range features {
		d := stats.SqDist(x, centroids[assign[i]])
		if weights != nil {
			d *= weights[i]
		}
		s += d
	}
	return s
}
