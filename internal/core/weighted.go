package core

//fairvet:floateq mass[c]==0 is exact emptiness of a sum of positive weights

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// RunWeighted executes FairKM over weighted points: row i stands for
// weights[i] original points. The objective is the weighted Eq. 1 —
// the K-Means term becomes Σ_C Σ_{X∈C} w_X·dist_N(X, C), cluster
// prototypes become weighted means, and every fractional representation
// in the fairness term (cluster masses, value masses, dataset
// fractions) is computed over weights instead of row counts.
//
// This is the solve stage of the summarize-then-solve pipeline: a fair
// coreset (internal/coreset) compresses an unbounded stream to O(m·log
// n) weighted rows whose weighted objective approximates the full
// stream's, and RunWeighted descends on that summary at summary cost.
//
// Semantics relative to the unweighted solver:
//
//   - Unit weights reproduce Run bit-for-bit (same RNG stream, same
//     trajectory, same objective bits) — tested in weighted_test.go.
//   - Integer weights approximate solving the explicitly duplicated
//     dataset. The objective of corresponding assignments agrees to
//     floating-point accumulation order (≈1e-9 relative); trajectories
//     agree when descent moves whole duplicate groups together, which
//     coordinate descent encourages (a weighted row moves atomically).
//   - AutoLambda uses λ = (W/K)² with W = Σ weights, so a summary
//     standing for W points solves at the λ the full data would use.
//
// Weights must be positive and finite. Fairness is measured within the
// weighted rows; for stream summaries, report full-data metrics with a
// second pass (internal/pipeline.Evaluate) rather than on the summary.
func RunWeighted(ds *dataset.Dataset, weights []float64, cfg Config) (*Result, error) {
	if err := cfg.Validate(ds); err != nil {
		return nil, err
	}
	if len(weights) != ds.N() {
		return nil, fmt.Errorf("fairkm: %d weights for %d rows", len(weights), ds.N())
	}
	for i, w := range weights {
		if w <= 0 || !finite(w) {
			return nil, fmt.Errorf("fairkm: weight[%d] = %v must be positive and finite", i, w)
		}
	}
	return runWith(ds, cfg, weights)
}

// EvaluateObjectiveWeighted computes the weighted FairKM objective for
// an arbitrary assignment from scratch, with no incremental
// bookkeeping — the reference RunWeighted's sufficient statistics are
// tested against. rowW == nil means unit weights (EvaluateObjective).
func EvaluateObjectiveWeighted(ds *dataset.Dataset, rowW []float64, assign []int, k int, lambda float64, attrWeights map[string]float64) (ObjectiveValue, error) {
	if err := ds.Validate(); err != nil {
		return ObjectiveValue{}, fmt.Errorf("fairkm: %w", err)
	}
	n := ds.N()
	if len(assign) != n {
		return ObjectiveValue{}, fmt.Errorf("fairkm: assignment has %d entries, want %d", len(assign), n)
	}
	if rowW != nil && len(rowW) != n {
		return ObjectiveValue{}, fmt.Errorf("fairkm: %d weights for %d rows", len(rowW), n)
	}
	for i, c := range assign {
		if c < 0 || c >= k {
			return ObjectiveValue{}, fmt.Errorf("fairkm: row %d assigned to cluster %d outside [0,%d)", i, c, k)
		}
	}

	// Weighted K-Means term: Σ_C Σ_{X∈C} w_X·‖X − μ_C‖² with μ_C the
	// weighted mean.
	members := make([][]int, k)
	for i, c := range assign {
		members[c] = append(members[c], i)
	}
	km := 0.0
	for c := 0; c < k; c++ {
		if len(members[c]) == 0 {
			continue
		}
		mu := make([]float64, ds.Dim())
		mass := 0.0
		for _, i := range members[c] {
			stats.AddScaledTo(mu, ds.Features[i], weightOf(rowW, i))
			mass += weightOf(rowW, i)
		}
		stats.Scale(mu, 1/mass)
		for _, i := range members[c] {
			km += weightOf(rowW, i) * stats.SqDist(ds.Features[i], mu)
		}
	}

	fair, err := FairnessDeviationWeighted(ds, rowW, assign, k, attrWeights)
	if err != nil {
		return ObjectiveValue{}, err
	}
	return ObjectiveValue{
		KMeansTerm:   km,
		FairnessTerm: fair,
		Objective:    km + lambda*fair,
		Lambda:       lambda,
	}, nil
}

// FairnessDeviationWeighted computes deviation_S(C, X) (Eq. 7 for
// categorical attributes, Eq. 22 for numeric ones, with optional Eq. 23
// weights keyed by attribute name, nil meaning all ones) over weighted
// rows for an arbitrary assignment, from scratch — the reference the
// optimized solver is tested against. rowW == nil means unit weights.
func FairnessDeviationWeighted(ds *dataset.Dataset, rowW []float64, assign []int, k int, attrWeights map[string]float64) (float64, error) {
	n := ds.N()
	if len(assign) != n {
		return 0, fmt.Errorf("fairkm: assignment has %d entries, want %d", len(assign), n)
	}
	if rowW != nil && len(rowW) != n {
		return 0, fmt.Errorf("fairkm: %d weights for %d rows", len(rowW), n)
	}
	mass := make([]float64, k)
	totalMass := 0.0
	for i, c := range assign {
		mass[c] += weightOf(rowW, i)
		totalMass += weightOf(rowW, i)
	}
	weight := func(c int) float64 {
		frac := mass[c] / totalMass
		return frac * frac
	}
	total := 0.0
	for _, s := range ds.Sensitive {
		w := 1.0
		if cw, ok := attrWeights[s.Name]; ok {
			w = cw
		}
		switch s.Kind {
		case dataset.Categorical:
			frX := weightedFractions(s, rowW, totalMass)
			clusterMass := make([][]float64, k)
			for c := range clusterMass {
				clusterMass[c] = make([]float64, len(s.Values))
			}
			for i, c := range assign {
				clusterMass[c][s.Codes[i]] += weightOf(rowW, i)
			}
			for c := 0; c < k; c++ {
				if mass[c] == 0 {
					continue // Eq. 3: empty clusters contribute 0
				}
				sum := 0.0
				for v := range frX {
					d := clusterMass[c][v]/mass[c] - frX[v]
					sum += d * d
				}
				sum /= float64(len(s.Values))
				total += weight(c) * w * sum
			}
		case dataset.Numeric:
			meanX := weightedMean(s.Reals, rowW, totalMass)
			sums := make([]float64, k)
			for i, c := range assign {
				sums[c] += weightOf(rowW, i) * s.Reals[i]
			}
			for c := 0; c < k; c++ {
				if mass[c] == 0 {
					continue
				}
				d := sums[c]/mass[c] - meanX
				total += weight(c) * w * d * d
			}
		}
	}
	return total, nil
}

// weightOf returns row i's weight, 1 when rowW == nil (unit weights).
func weightOf(rowW []float64, i int) float64 {
	if rowW == nil {
		return 1
	}
	return rowW[i]
}

// weightedFractions is ds.Fractions under per-row masses: Fr_X(v) =
// Σ_{i: code_i = v} w_i / Σ w. Under unit weights (rowW == nil,
// totalMass = n) it rounds exactly as ds.Fractions: adding 1.0 is
// incrementing, and both divide by float64(n).
func weightedFractions(s *dataset.SensitiveAttr, rowW []float64, totalMass float64) []float64 {
	fr := make([]float64, len(s.Values))
	for i, c := range s.Codes {
		fr[c] += weightOf(rowW, i)
	}
	for i := range fr {
		fr[i] /= totalMass
	}
	return fr
}

// weightedMean is stats.Mean under per-row masses, and exactly
// stats.Mean under unit weights (rowW == nil, totalMass = n), where
// 1·x is x.
func weightedMean(xs, rowW []float64, totalMass float64) float64 {
	s := 0.0
	for i, x := range xs {
		s += weightOf(rowW, i) * x
	}
	return s / totalMass
}
