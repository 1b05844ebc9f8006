package core

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/kmeans"
	"repro/internal/stats"
)

// repairSeed finds a seed whose RAW random partition (before repair)
// leaves at least one of k clusters empty, so runs started from it
// genuinely exercise the engine's empty-cluster repair.
func repairSeed(t *testing.T, n, k int) int64 {
	t.Helper()
	for seed := int64(0); seed < 500; seed++ {
		rng := stats.NewRNG(seed)
		sizes := make([]int, k)
		for i := 0; i < n; i++ {
			sizes[rng.Intn(k)]++
		}
		for _, s := range sizes {
			if s == 0 {
				return seed
			}
		}
	}
	t.Fatal("no seed with an empty raw partition found")
	return 0
}

// TestEmptyClusterRepairThroughSweepPaths starts FairKM from a random
// partition that needs empty-cluster repair and drives it through the
// sequential, mini-batch and frozen-parallel sweep paths. Each run
// must see k non-empty clusters at initialization (the engine
// invariant) and produce a valid, correctly-scored clustering.
func TestEmptyClusterRepairThroughSweepPaths(t *testing.T) {
	rng := stats.NewRNG(77)
	ds := randomDataset(t, rng, 24, 3, 2, 0)
	const k = 12
	seed := repairSeed(t, ds.N(), k)

	// The engine's initializer must have repaired the raw partition.
	init := engine.InitAssignmentWeighted(ds.Features, nil, k, engine.RandomPartition, stats.NewRNG(seed))
	sizes := make([]int, k)
	for _, c := range init {
		sizes[c]++
	}
	for c, s := range sizes {
		if s == 0 {
			t.Fatalf("cluster %d empty after repair", c)
		}
	}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sequential", Config{}},
		{"minibatch", Config{MiniBatch: 5}},
		{"parallel", Config{Parallelism: 3}},
		{"parallel-minibatch", Config{Parallelism: 2, MiniBatch: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.K = k
			cfg.Seed = seed
			cfg.AutoLambda = true
			cfg.Init = kmeans.RandomPartition
			res, err := Run(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range res.Assign {
				if c < 0 || c >= k {
					t.Fatalf("row %d assigned out-of-range cluster %d", i, c)
				}
			}
			ov, err := EvaluateObjective(ds, res.Assign, k, res.Lambda, nil)
			if err != nil {
				t.Fatal(err)
			}
			scale := math.Max(1, math.Abs(ov.Objective))
			if math.Abs(ov.Objective-res.Objective) > 1e-6*scale {
				t.Fatalf("incremental objective %v, from-scratch %v", res.Objective, ov.Objective)
			}
		})
	}
}
