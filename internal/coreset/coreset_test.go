package coreset

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/stats"
)

func clusteredDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	b := dataset.NewBuilder("x", "y")
	b.AddCategoricalSensitive("g")
	rng := stats.NewRNG(4)
	for i := 0; i < n; i++ {
		blob := float64(i % 3 * 8)
		v := "a"
		if i%5 == 0 {
			v = "b"
		}
		b.Row([]float64{rng.Gaussian(blob, 0.5), rng.Gaussian(0, 0.5)}, []string{v}, nil)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestLightweightWeightsSumApproxN(t *testing.T) {
	ds := clusteredDataset(t, 600)
	w, err := LightweightWeighted(ds.Features, nil, nil, 120, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// Importance weights are unbiased: total weight ≈ n.
	if total := w.TotalWeight(); math.Abs(total-600) > 150 {
		t.Errorf("total weight %v far from n=600", total)
	}
	if len(w.Indices) > 120 {
		t.Errorf("coreset has %d points, want <= 120 (merging duplicates)", len(w.Indices))
	}
	for _, wt := range w.Weights {
		if wt <= 0 {
			t.Fatalf("non-positive weight %v", wt)
		}
	}
}

func TestLightweightDegenerate(t *testing.T) {
	ds := clusteredDataset(t, 10)
	w, err := LightweightWeighted(ds.Features, nil, nil, 50, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Indices) != 10 {
		t.Errorf("m >= n should keep all points, got %d", len(w.Indices))
	}
	for _, wt := range w.Weights {
		if wt != 1 {
			t.Errorf("unit weights expected, got %v", wt)
		}
	}
	if _, err := LightweightWeighted(ds.Features, []int{}, nil, 5, stats.NewRNG(1)); err == nil {
		t.Error("empty subset accepted")
	}
	if _, err := LightweightWeighted(ds.Features, nil, nil, 0, stats.NewRNG(1)); err == nil {
		t.Error("m=0 accepted")
	}
}

// TestLightweightWeightedDegenerateWeights: an all-zero (or invalid)
// weight vector used to slip through to the 1/totalW division and
// return NaN means and weights; it must be a loud error instead.
func TestLightweightWeightedDegenerateWeights(t *testing.T) {
	ds := clusteredDataset(t, 40)
	zero := make([]float64, 40)
	if _, err := LightweightWeighted(ds.Features, nil, zero, 10, stats.NewRNG(1)); err == nil {
		t.Error("all-zero weights accepted")
	}
	bad := make([]float64, 40)
	for i := range bad {
		bad[i] = 1
	}
	bad[7] = math.NaN()
	if _, err := LightweightWeighted(ds.Features, nil, bad, 10, stats.NewRNG(1)); err == nil {
		t.Error("NaN weight accepted")
	}
	bad[7] = math.Inf(1)
	if _, err := LightweightWeighted(ds.Features, nil, bad, 10, stats.NewRNG(1)); err == nil {
		t.Error("Inf weight accepted")
	}
	bad[7] = -1
	if _, err := LightweightWeighted(ds.Features, nil, bad, 10, stats.NewRNG(1)); err == nil {
		t.Error("negative weight accepted")
	}
	// Individual zero weights among positive ones are fine: the point
	// just can't be sampled by the uniform half of q.
	ok := make([]float64, 40)
	for i := range ok {
		ok[i] = 1
	}
	ok[3] = 0
	w, err := LightweightWeighted(ds.Features, nil, ok, 10, stats.NewRNG(1))
	if err != nil {
		t.Fatalf("zero single weight rejected: %v", err)
	}
	for pos, i := range w.Indices {
		if i == 3 && w.Weights[pos] != 0 {
			t.Errorf("zero-weight point sampled with weight %v", w.Weights[pos])
		}
	}
}

// TestCoresetApproximatesKMeansCost: the weighted k-means cost of a
// solution computed on the coreset must be close to the full-data cost
// of the same solution.
func TestCoresetApproximatesKMeansCost(t *testing.T) {
	ds := clusteredDataset(t, 900)
	full, err := kmeans.Run(ds.Features, kmeans.Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := LightweightWeighted(ds.Features, nil, nil, 250, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the FULL solution's centroids on the coreset.
	sub := make([][]float64, len(w.Indices))
	assign := make([]int, len(w.Indices))
	for pos, i := range w.Indices {
		sub[pos] = ds.Features[i]
		assign[pos] = full.Assign[i]
	}
	coresetCost := kmeans.WeightedSSE(sub, w.Weights, assign, full.Centroids)
	if rel := math.Abs(coresetCost-full.Objective) / full.Objective; rel > 0.35 {
		t.Errorf("coreset cost %v vs full %v (rel err %v)", coresetCost, full.Objective, rel)
	}
}

// TestWeightedKMeansOnCoresetApproximatesFull: clustering the fair
// coreset (the unit-weight rows reduced per group of g) should find
// centroids nearly as good as clustering everything.
func TestWeightedKMeansOnCoresetApproximatesFull(t *testing.T) {
	ds := clusteredDataset(t, 900)
	full, err := kmeans.Run(ds.Features, kmeans.Config{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, ds.N())
	for i := range ones {
		ones[i] = 1
	}
	w, err := ReduceGroups(ds.Features, ones, ds.SensitiveByName("g").Codes, 250, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	sub := make([][]float64, len(w.Indices))
	for pos, i := range w.Indices {
		sub[pos] = ds.Features[i]
	}
	wres, err := kmeans.RunWeighted(sub, w.Weights, kmeans.Config{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate coreset centroids on the FULL data.
	assign := make([]int, ds.N())
	cost := 0.0
	for i, x := range ds.Features {
		best, bestD := 0, math.Inf(1)
		for c, cen := range wres.Centroids {
			if d := stats.SqDist(x, cen); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		cost += bestD
	}
	if cost > 1.3*full.Objective {
		t.Errorf("coreset-derived solution costs %v vs full %v (>30%% worse)", cost, full.Objective)
	}
}

// TestReduceGroups: the merge-reduce step shrinks a weighted, group-
// labelled union to ≈budget points, preserves every group's total mass
// exactly, keeps at least one point per group, and is deterministic in
// the RNG seed.
func TestReduceGroups(t *testing.T) {
	rng := stats.NewRNG(7)
	const n = 900
	features := make([][]float64, n)
	weights := make([]float64, n)
	groups := make([]int, n)
	groupMass := map[int]float64{}
	for i := range features {
		g := i % 3
		features[i] = []float64{rng.Gaussian(float64(g)*5, 1), rng.Gaussian(0, 1)}
		weights[i] = 1 + rng.Float64()
		groups[i] = g
		groupMass[g] += weights[i]
	}
	const budget = 90
	w, err := ReduceGroups(features, weights, groups, budget, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Indices) > budget+3 {
		t.Errorf("reduced to %d points, budget %d (+3 groups)", len(w.Indices), budget)
	}
	gotMass := map[int]float64{}
	seen := map[int]bool{}
	for pos, i := range w.Indices {
		gotMass[groups[i]] += w.Weights[pos]
		seen[groups[i]] = true
	}
	for g, want := range groupMass {
		if !seen[g] {
			t.Errorf("group %d lost entirely", g)
		}
		if math.Abs(gotMass[g]-want) > 1e-9*want {
			t.Errorf("group %d mass %v after reduce, want %v", g, gotMass[g], want)
		}
	}
	// Deterministic replay.
	w2, err := ReduceGroups(features, weights, groups, budget, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(w2.Indices) != len(w.Indices) {
		t.Fatalf("replay kept %d points, want %d", len(w2.Indices), len(w.Indices))
	}
	for pos := range w.Indices {
		if w.Indices[pos] != w2.Indices[pos] || math.Float64bits(w.Weights[pos]) != math.Float64bits(w2.Weights[pos]) {
			t.Fatalf("replay diverges at %d", pos)
		}
	}
	// A tiny group still survives with ≥1 point.
	groups[0] = 99
	w3, err := ReduceGroups(features, weights, groups, budget, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	kept := false
	for _, i := range w3.Indices {
		if i == 0 {
			kept = true
		}
	}
	if !kept {
		t.Error("singleton group dropped by the reduce")
	}

	// Validation.
	if _, err := ReduceGroups(nil, nil, nil, 10, rng); err == nil {
		t.Error("empty point set accepted")
	}
	if _, err := ReduceGroups(features, weights[:10], groups, 10, rng); err == nil {
		t.Error("mismatched weights accepted")
	}
	if _, err := ReduceGroups(features, weights, groups, 0, rng); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestRunWeightedValidation(t *testing.T) {
	feats := [][]float64{{1}, {2}, {3}}
	if _, err := kmeans.RunWeighted(feats, []float64{1, 1}, kmeans.Config{K: 2}); err == nil {
		t.Error("weight arity mismatch accepted")
	}
	if _, err := kmeans.RunWeighted(feats, []float64{1, -1, 1}, kmeans.Config{K: 2}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := kmeans.RunWeighted(nil, nil, kmeans.Config{K: 1}); err == nil {
		t.Error("empty input accepted")
	}
}

// TestWeightedMatchesUnweightedAtUnitWeights: RunWeighted with all-1
// weights should produce the same objective scale as Run (not exactly
// the same clustering since initialization differs, but evaluating the
// same assignment must give identical SSE).
func TestWeightedSSEMatchesUnweighted(t *testing.T) {
	ds := clusteredDataset(t, 120)
	res, err := kmeans.Run(ds.Features, kmeans.Config{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, ds.N())
	for i := range ones {
		ones[i] = 1
	}
	wsse := kmeans.WeightedSSE(ds.Features, ones, res.Assign, res.Centroids)
	if math.Abs(wsse-res.Objective) > 1e-9*(1+res.Objective) {
		t.Errorf("unit-weight SSE %v differs from SSE %v", wsse, res.Objective)
	}
}
