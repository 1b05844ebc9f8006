package kmeans

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func blobFeatures(seed int64, n, blobs, dim int) [][]float64 {
	rng := stats.NewRNG(seed)
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.Gaussian(float64((i%blobs)*(j+1))*8, 0.7)
		}
		out[i] = row
	}
	return out
}

// TestRunWeightedUnitParity: RunWeighted with all-1 weights must
// reproduce Run exactly — assignments, iterations, centroid and
// objective bits — from the k-means++ start and under Tol, parallel
// and MaxIter variants. The weighted solver is a strict generalization, not a
// second implementation.
func TestRunWeightedUnitParity(t *testing.T) {
	features := blobFeatures(3, 300, 4, 3)
	ones := make([]float64, len(features))
	for i := range ones {
		ones[i] = 1
	}
	configs := map[string]Config{
		"kmpp":    {K: 4, Seed: 5},
		"tol":     {K: 4, Seed: 5, Tol: 1e-4},
		"par3":    {K: 4, Seed: 5, Parallelism: 3},
		"maxiter": {K: 5, Seed: 2, MaxIter: 4},
	}
	for name, cfg := range configs {
		ref, err := Run(features, cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		got, err := RunWeighted(features, ones, cfg)
		if err != nil {
			t.Fatalf("%s: RunWeighted: %v", name, err)
		}
		if got.Iterations != ref.Iterations || got.Converged != ref.Converged {
			t.Errorf("%s: iterations %d/%v vs %d/%v", name, got.Iterations, got.Converged, ref.Iterations, ref.Converged)
		}
		for i := range ref.Assign {
			if got.Assign[i] != ref.Assign[i] {
				t.Fatalf("%s: assign[%d] = %d, want %d", name, i, got.Assign[i], ref.Assign[i])
			}
		}
		if math.Float64bits(got.Objective) != math.Float64bits(ref.Objective) {
			t.Errorf("%s: objective bits differ: %v vs %v", name, got.Objective, ref.Objective)
		}
		for c := range ref.Centroids {
			for j := range ref.Centroids[c] {
				if math.Float64bits(got.Centroids[c][j]) != math.Float64bits(ref.Centroids[c][j]) {
					t.Fatalf("%s: centroid [%d][%d] %v vs %v", name, c, j, got.Centroids[c][j], ref.Centroids[c][j])
				}
			}
		}
	}
}

// TestRunWeightedDuplicationParity: integer weights must match running
// the plain solver on the explicitly duplicated dataset. Lloyd's
// assign and update steps cannot tell whether mass arrives as one
// weighted row or w duplicate rows, so from a shared set of initial
// centroids (Config.initCentroids) the two runs are the same descent.
func TestRunWeightedDuplicationParity(t *testing.T) {
	features := blobFeatures(9, 180, 3, 2)
	rng := stats.NewRNG(31)
	w := make([]int, len(features))
	wf := make([]float64, len(features))
	var dup [][]float64
	var src []int
	for i := range features {
		w[i] = 1 + rng.Intn(4)
		wf[i] = float64(w[i])
		for r := 0; r < w[i]; r++ {
			dup = append(dup, features[i])
			src = append(src, i)
		}
	}
	const k = 3
	// Arbitrary-but-fixed initial centroids shared by both runs.
	init := [][]float64{features[0], features[1], features[2]}

	wres, err := RunWeighted(features, wf, Config{K: k, initCentroids: init})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := Run(dup, Config{K: k, initCentroids: init})
	if err != nil {
		t.Fatal(err)
	}
	for j, i := range src {
		if dres.Assign[j] != wres.Assign[i] {
			t.Fatalf("duplicate %d (source %d): cluster %d, weighted run says %d", j, i, dres.Assign[j], wres.Assign[i])
		}
	}
	if rel := math.Abs(wres.Objective-dres.Objective) / (1 + dres.Objective); rel > 1e-9 {
		t.Errorf("objective %v (weighted) vs %v (duplicated): rel %v", wres.Objective, dres.Objective, rel)
	}
	if wres.Iterations != dres.Iterations {
		t.Errorf("iterations %d vs %d", wres.Iterations, dres.Iterations)
	}
	for c := range wres.Centroids {
		for j := range wres.Centroids[c] {
			if math.Abs(wres.Centroids[c][j]-dres.Centroids[c][j]) > 1e-9 {
				t.Fatalf("centroid [%d][%d] %v vs %v", c, j, wres.Centroids[c][j], dres.Centroids[c][j])
			}
		}
	}
}

// TestRunWeightedParallelDeterminism: like the unweighted solver, the
// weighted Lloyd sweep must be bit-identical for every worker count.
func TestRunWeightedParallelDeterminism(t *testing.T) {
	features := blobFeatures(7, 400, 5, 3)
	rng := stats.NewRNG(2)
	wf := make([]float64, len(features))
	for i := range wf {
		wf[i] = 0.5 + 2*rng.Float64()
	}
	ref, err := RunWeighted(features, wf, Config{K: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 7} {
		got, err := RunWeighted(features, wf, Config{K: 5, Seed: 4, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Assign {
			if got.Assign[i] != ref.Assign[i] {
				t.Fatalf("workers=%d: assign[%d] differs", workers, i)
			}
		}
		if math.Float64bits(got.Objective) != math.Float64bits(ref.Objective) {
			t.Errorf("workers=%d: objective bits differ", workers)
		}
	}
}
