package zgya

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// parallelDataset builds a mixed dataset with one clustered sensitive
// attribute for the engine-path tests.
func parallelDataset(t *testing.T, seed int64, n int) *dataset.Dataset {
	t.Helper()
	rng := stats.NewRNG(seed)
	b := dataset.NewBuilder("x", "y")
	b.AddCategoricalSensitive("g")
	for i := 0; i < n; i++ {
		center := float64(i % 4)
		b.Row(
			[]float64{rng.Gaussian(center*3, 1), rng.Gaussian(-center*2, 1)},
			[]string{string(rune('a' + i%3))},
			nil,
		)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestParallelSweepDeterminism: the engine's parallelism contract now
// covers ZGYA — frozen-statistics parallel sweeps are bit-identical
// for every worker count.
func TestParallelSweepDeterminism(t *testing.T) {
	ds := parallelDataset(t, 41, 600)
	var ref *Result
	for _, p := range []int{1, 2, 4, core.ParallelismAuto} {
		res, err := Run(ds, "g", Config{K: 6, AutoLambda: true, Seed: 9, Parallelism: p})
		if err != nil {
			t.Fatalf("parallelism=%d: %v", p, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Objective != ref.Objective || res.Iterations != ref.Iterations || res.Converged != ref.Converged {
			t.Fatalf("parallelism=%d diverged: objective %v vs %v, iters %d vs %d",
				p, res.Objective, ref.Objective, res.Iterations, ref.Iterations)
		}
		for i := range res.Assign {
			if res.Assign[i] != ref.Assign[i] {
				t.Fatalf("parallelism=%d: assignment mismatch at row %d", p, i)
			}
		}
	}
}

// TestParallelSweepMonotone: the re-validated parallel sweep keeps
// ZGYA's coordinate descent monotone.
func TestParallelSweepMonotone(t *testing.T) {
	ds := parallelDataset(t, 52, 400)
	s := ds.SensitiveByName("g")
	res, err := Run(ds, "g", Config{K: 5, Lambda: 25, Seed: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Final state must score identically under the from-scratch
	// objective used by the delta tests.
	naive := naiveObjective(ds, s, res.Assign, 5, 25)
	if math.Abs(naive-res.Objective) > 1e-7*(1+math.Abs(naive)) {
		t.Fatalf("incremental objective %v, from-scratch %v", res.Objective, naive)
	}
}
