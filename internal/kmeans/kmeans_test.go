package kmeans

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
)

// blobs generates g well-separated Gaussian blobs of m points each.
func blobs(seed int64, g, m, dim int, sep float64) ([][]float64, []int) {
	rng := stats.NewRNG(seed)
	features := make([][]float64, 0, g*m)
	labels := make([]int, 0, g*m)
	for c := 0; c < g; c++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = float64(c) * sep
		}
		for i := 0; i < m; i++ {
			x := make([]float64, dim)
			for j := range x {
				x[j] = center[j] + rng.Gaussian(0, 0.3)
			}
			features = append(features, x)
			labels = append(labels, c)
		}
	}
	return features, labels
}

func TestRecoverSeparatedBlobs(t *testing.T) {
	features, labels := blobs(1, 3, 40, 4, 20)
	for _, init := range []InitMethod{KMeansPlusPlus, RandomPartition, RandomPoints} {
		res, err := Run(features, Config{K: 3, Seed: 5, Init: init})
		if err != nil {
			t.Fatalf("init %v: %v", init, err)
		}
		// Every true blob must map to exactly one cluster.
		seen := map[int]map[int]bool{}
		for i, lab := range labels {
			if seen[lab] == nil {
				seen[lab] = map[int]bool{}
			}
			seen[lab][res.Assign[i]] = true
		}
		for lab, cs := range seen {
			if len(cs) != 1 {
				t.Errorf("init %v: blob %d split across clusters %v", init, lab, cs)
			}
		}
		if !res.Converged {
			t.Errorf("init %v: did not converge", init)
		}
	}
}

func TestObjectiveDecreasesMonotonically(t *testing.T) {
	// Lloyd's algorithm guarantees non-increasing SSE; verify indirectly
	// by checking the final SSE is no worse than after one iteration.
	features, _ := blobs(2, 4, 30, 3, 5)
	one, err := Run(features, Config{K: 4, Seed: 9, MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(features, Config{K: 4, Seed: 9, MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	if full.Objective > one.Objective+1e-9 {
		t.Errorf("SSE worsened: 1 iter %v, full %v", one.Objective, full.Objective)
	}
}

func TestConfigValidation(t *testing.T) {
	features, _ := blobs(3, 2, 5, 2, 5)
	if _, err := Run(nil, Config{K: 2}); err == nil {
		t.Error("nil features accepted")
	}
	if _, err := Run(features, Config{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Run(features, Config{K: len(features) + 1}); err == nil {
		t.Error("K>n accepted")
	}
	if _, err := Run([][]float64{{1, 2}, {3}}, Config{K: 1}); err == nil {
		t.Error("ragged features accepted")
	}
}

func TestKEqualsN(t *testing.T) {
	features, _ := blobs(4, 1, 5, 2, 0)
	res, err := Run(features, Config{K: 5, Seed: 1, Init: RandomPoints})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > 1e-6 {
		// With k = n each point can have its own cluster; SSE ~ 0 is
		// reachable but not guaranteed by Lloyd from any start, so just
		// check validity of the assignment.
		for _, c := range res.Assign {
			if c < 0 || c >= 5 {
				t.Fatalf("invalid cluster %d", c)
			}
		}
	}
}

func TestSizesSumToN(t *testing.T) {
	features, _ := blobs(5, 3, 20, 2, 8)
	res, err := Run(features, Config{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(features) {
		t.Errorf("sizes sum to %d, want %d", total, len(features))
	}
}

func TestSSEMatchesDefinition(t *testing.T) {
	features, _ := blobs(6, 2, 15, 3, 6)
	res, err := Run(features, Config{K: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	manual := 0.0
	for i, x := range features {
		manual += stats.SqDist(x, res.Centroids[res.Assign[i]])
	}
	if math.Abs(manual-res.Objective) > 1e-9*(1+manual) {
		t.Errorf("SSE %v, manual %v", res.Objective, manual)
	}
}

func TestPlusPlusSpreadsCentroids(t *testing.T) {
	features, _ := blobs(7, 4, 25, 2, 50)
	rng := stats.NewRNG(11)
	cents := engine.PlusPlusCentroidsWeighted(features, nil, 4, rng)
	if len(cents) != 4 {
		t.Fatalf("got %d centroids", len(cents))
	}
	// With blobs 50 apart and k-means++ D² weighting, all four
	// centroids should land in distinct blobs.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if stats.Dist(cents[i], cents[j]) < 10 {
				t.Errorf("centroids %d and %d are in the same blob", i, j)
			}
		}
	}
}

func TestPlusPlusDegenerateData(t *testing.T) {
	// All points identical: D² weights collapse to zero; must not panic.
	features := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	rng := stats.NewRNG(1)
	cents := engine.PlusPlusCentroidsWeighted(features, nil, 3, rng)
	if len(cents) != 3 {
		t.Fatalf("got %d centroids", len(cents))
	}
}

func TestRandomPartitionNoEmptyClusters(t *testing.T) {
	features, _ := blobs(8, 1, 30, 2, 0)
	for seed := int64(0); seed < 20; seed++ {
		res, err := Run(features, Config{K: 7, Seed: seed, Init: RandomPartition, MaxIter: 1})
		if err != nil {
			t.Fatal(err)
		}
		_ = res
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	features, _ := blobs(9, 3, 20, 3, 4)
	a, _ := Run(features, Config{K: 3, Seed: 21})
	b, _ := Run(features, Config{K: 3, Seed: 21})
	if a.Objective != b.Objective {
		t.Errorf("objectives differ: %v vs %v", a.Objective, b.Objective)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
}

func TestInitMethodString(t *testing.T) {
	if KMeansPlusPlus.String() != "kmeans++" ||
		RandomPartition.String() != "random-partition" ||
		RandomPoints.String() != "random-points" {
		t.Error("InitMethod String values changed")
	}
	if InitMethod(99).String() == "" {
		t.Error("unknown method should still stringify")
	}
}
