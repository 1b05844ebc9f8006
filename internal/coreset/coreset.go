// Package coreset implements fair (group-stratified) lightweight
// coresets for k-means, after Schmidt, Schwiegelshohn and Sohler
// ("Fair Coresets and Streaming Algorithms for Fair k-Means
// Clustering", 2018), surveyed as reference [20] in the FairKM paper's
// Table 1.
//
// A coreset is a small weighted point set whose weighted k-means cost
// approximates the full dataset's cost for EVERY candidate solution.
// Schmidt et al.'s observation is that fair clustering needs the
// coreset property to hold per sensitive group, which is achieved by
// building one coreset per group and taking the union.
//
// The per-group construction here is the lightweight coreset of Bachem
// et al.: sample m points with probability q(x) = ½·1/|G| +
// ½·d(x,μ_G)²/Σ_{y∈G} d(y,μ_G)², weighting each sampled point by
// 1/(m·q(x)). Sampling is with replacement; duplicates merge their
// weights.
package coreset

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Weighted is a weighted subset of a dataset's rows.
type Weighted struct {
	// Indices are row indexes into the source dataset.
	Indices []int
	// Weights are the corresponding coreset weights (each ≈ how many
	// original points the row stands for).
	Weights []float64
}

// TotalWeight returns the summed weight (≈ n of the source data).
func (w *Weighted) TotalWeight() float64 { return stats.Sum(w.Weights) }

// LightweightWeighted builds a lightweight coreset of m points over
// the given rows of features (subset == nil means all rows), each
// carrying a weight (weights == nil means unit weights, aligned with
// subset). It is the "reduce" step of the streaming merge-and-reduce
// construction: coresets of coresets remain coresets.
func LightweightWeighted(features [][]float64, subset []int, weights []float64, m int, rng *stats.RNG) (*Weighted, error) {
	if subset == nil {
		subset = make([]int, len(features))
		for i := range subset {
			subset[i] = i
		}
	}
	n := len(subset)
	if n == 0 {
		return nil, errors.New("coreset: empty point set")
	}
	if m < 1 {
		return nil, fmt.Errorf("coreset: size m=%d must be positive", m)
	}
	if weights != nil && len(weights) != n {
		return nil, fmt.Errorf("coreset: %d weights for %d points", len(weights), n)
	}
	if weights != nil {
		sum := 0.0
		for pos, w := range weights {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("coreset: weight[%d] = %v must be non-negative and finite", pos, w)
			}
			sum += w
		}
		if sum <= 0 {
			// Dividing through by an all-zero mass would poison every
			// mean and sampled weight with NaN; reject instead.
			return nil, fmt.Errorf("coreset: total weight %v is not positive", sum)
		}
	}
	wOf := func(pos int) float64 {
		if weights == nil {
			return 1
		}
		return weights[pos]
	}
	if m >= n {
		// Degenerate: keep everything at its current weight.
		w := &Weighted{Indices: append([]int(nil), subset...), Weights: make([]float64, n)}
		for pos := range w.Weights {
			w.Weights[pos] = wOf(pos)
		}
		return w, nil
	}
	// Weighted mean and weighted squared distances.
	dim := len(features[subset[0]])
	mu := make([]float64, dim)
	totalW := 0.0
	for pos, i := range subset {
		w := wOf(pos)
		for j, v := range features[i] {
			mu[j] += w * v
		}
		totalW += w
	}
	stats.Scale(mu, 1/totalW)
	d2 := make([]float64, n)
	total := 0.0
	for pos, i := range subset {
		d2[pos] = wOf(pos) * stats.SqDist(features[i], mu)
		total += d2[pos]
	}
	q := make([]float64, n)
	for pos := range q {
		q[pos] = 0.5 * wOf(pos) / totalW
		if total > 0 {
			q[pos] += 0.5 * d2[pos] / total
		} else {
			q[pos] += 0.5 * wOf(pos) / totalW
		}
	}
	// Sample m with replacement; merge duplicates by accumulating
	// weight. The estimator Σ w_x/(m·q_x) is unbiased for Σ w_x. Draws
	// go through a prefix-sum table with binary search — O(n + m·log n)
	// for the whole batch instead of Categorical's O(n·m) rescan — and
	// are bit-identical to the historical Categorical(q) stream.
	cum := stats.NewCumulative(q)
	accW := make([]float64, n)
	sampled := make([]bool, n)
	for s := 0; s < m; s++ {
		pos := cum.Sample(rng)
		accW[pos] += wOf(pos) / (float64(m) * q[pos])
		sampled[pos] = true
	}
	w := &Weighted{}
	for pos, i := range subset {
		if sampled[pos] {
			w.Indices = append(w.Indices, i)
			w.Weights = append(w.Weights, accW[pos])
		}
	}
	return w, nil
}

// ReduceGroups re-samples a weighted, group-labelled point set down to
// about budget points: one LightweightWeighted pass per group (groups
// in order of first appearance, sizes proportional to group row counts,
// at least one point each), with each group's total weight rescaled to
// its exact input mass afterwards — group proportions survive. It is
// the sharded pipeline's merge-reduce step: the union of per-shard
// fair coresets is a fair coreset, and one more reduce keeps it one
// while bounding the solve cost. The result holds at most budget +
// #groups points. Indices index into features.
func ReduceGroups(features [][]float64, weights []float64, groups []int, budget int, rng *stats.RNG) (*Weighted, error) {
	n := len(features)
	if n == 0 {
		return nil, errors.New("coreset: empty point set")
	}
	if len(weights) != n || len(groups) != n {
		return nil, fmt.Errorf("coreset: %d weights and %d groups for %d points", len(weights), len(groups), n)
	}
	if budget < 1 {
		return nil, fmt.Errorf("coreset: budget=%d must be positive", budget)
	}
	var order []int
	rowsOf := map[int][]int{}
	for i, g := range groups {
		if _, ok := rowsOf[g]; !ok {
			order = append(order, g)
		}
		rowsOf[g] = append(rowsOf[g], i)
	}
	out := &Weighted{}
	for _, g := range order {
		rows := rowsOf[g]
		m := budget * len(rows) / n
		if m < 1 {
			m = 1
		}
		gf := make([][]float64, len(rows))
		gw := make([]float64, len(rows))
		mass := 0.0
		for pos, i := range rows {
			gf[pos] = features[i]
			gw[pos] = weights[i]
			mass += weights[i]
		}
		cw, err := LightweightWeighted(gf, nil, gw, m, rng)
		if err != nil {
			return nil, err
		}
		// Exact group-mass rescale: proportions are what fairness
		// measures; sampling noise in the total is pure harm.
		scale := mass / cw.TotalWeight()
		for pos, gi := range cw.Indices {
			out.Indices = append(out.Indices, rows[gi])
			out.Weights = append(out.Weights, cw.Weights[pos]*scale)
		}
	}
	return out, nil
}
