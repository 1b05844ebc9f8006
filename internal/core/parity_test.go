package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data/adult"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// parityAdult generates a reduced Adult dataset once for the parity and
// determinism tests (Adult-shaped: five categorical attributes, domain
// sizes up to 41, eight correlated numeric features).
func parityAdult(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := adult.Generate(adult.Config{Seed: 11, Rows: 2000, SkipParity: true})
	if err != nil {
		t.Fatalf("generating Adult: %v", err)
	}
	ds.MinMaxNormalize()
	return ds
}

// parityConfigs enumerates the kernel-relevant configuration corners:
// auto-λ, a small fixed λ with few clusters, and per-attribute
// weights, each run on datasets with and without numeric sensitive
// attributes.
func parityConfigs(attrWeights map[string]float64) []Config {
	return []Config{
		{K: 7, AutoLambda: true, Seed: 3},
		{K: 4, Lambda: 7, Seed: 1},
		{K: 5, Lambda: 40, Seed: 9, Weights: attrWeights},
	}
}

// compareTrajectories asserts that two runs took the same optimization
// path: identical move decisions throughout and therefore identical
// final assignments. Objective values are compared within a tight
// relative tolerance — the aggregate kernel evaluates the same sums in
// a different floating-point association than the per-value reference,
// so last-ulp differences are expected, but any decision divergence
// would show up as an assignment or move-count mismatch.
func compareTrajectories(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Iterations != b.Iterations || a.Converged != b.Converged || a.TotalMoves != b.TotalMoves {
		t.Fatalf("%s: trajectory mismatch: iters %d/%d converged %v/%v moves %d/%d",
			label, a.Iterations, b.Iterations, a.Converged, b.Converged, a.TotalMoves, b.TotalMoves)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("%s: assignment mismatch at row %d: %d vs %d", label, i, a.Assign[i], b.Assign[i])
		}
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: history length %d vs %d", label, len(a.History), len(b.History))
	}
	relClose := func(x, y float64) bool {
		scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		return math.Abs(x-y) <= 1e-9*scale
	}
	for it := range a.History {
		ha, hb := a.History[it], b.History[it]
		if ha.Moves != hb.Moves {
			t.Fatalf("%s: iteration %d made %d vs %d moves", label, it+1, ha.Moves, hb.Moves)
		}
		if !relClose(ha.Objective, hb.Objective) {
			t.Fatalf("%s: iteration %d objective %v vs %v", label, it+1, ha.Objective, hb.Objective)
		}
	}
	if !relClose(a.Objective, b.Objective) || !relClose(a.KMeansTerm, b.KMeansTerm) || !relClose(a.FairnessTerm, b.FairnessTerm) {
		t.Fatalf("%s: final objective %v/%v/%v vs %v/%v/%v", label,
			a.KMeansTerm, a.FairnessTerm, a.Objective, b.KMeansTerm, b.FairnessTerm, b.Objective)
	}
}

// TestAggregateKernelParity is the tentpole's central correctness
// claim: routing scoring through the O(1) aggregate closed forms
// produces the same objective trajectory as the per-value reference
// kernel — same moves, same assignments, same objectives — across the
// configuration corners, on both synthetic mixed data and Adult.
func TestAggregateKernelParity(t *testing.T) {
	rng := stats.NewRNG(21)
	synth := randomDataset(t, rng, 400, 6, 3, 0)
	synthNum := randomDataset(t, rng, 300, 4, 2, 2) // numeric sensitive attrs
	adultDS := parityAdult(t)

	datasets := []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"synth", synth},
		{"synth+numeric", synthNum},
		{"adult", adultDS},
	}
	for _, d := range datasets {
		weights := map[string]float64{d.ds.Sensitive[0].Name: 2.5}
		for ci, base := range parityConfigs(weights) {
			cfg := base
			cfg.RecordHistory = true
			label := fmt.Sprintf("%s/cfg%d", d.name, ci)
			t.Run(label, func(t *testing.T) {
				agg := cfg
				agg.naiveKernel = false
				naive := cfg
				naive.naiveKernel = true
				ra, err := Run(d.ds, agg)
				if err != nil {
					t.Fatalf("aggregate run: %v", err)
				}
				rn, err := Run(d.ds, naive)
				if err != nil {
					t.Fatalf("naive run: %v", err)
				}
				compareTrajectories(t, label, ra, rn)

				// With identical assignments, the from-scratch Eq. 1/7/22
				// evaluation of both results is bit-identical by
				// construction; check it agrees with the incremental
				// bookkeeping too.
				ov, err := EvaluateObjective(d.ds, ra.Assign, cfg.K, ra.Lambda, cfg.Weights)
				if err != nil {
					t.Fatalf("evaluating objective: %v", err)
				}
				scale := math.Max(1, math.Abs(ov.Objective))
				if math.Abs(ov.Objective-ra.Objective) > 1e-6*scale {
					t.Fatalf("from-scratch objective %v vs incremental %v", ov.Objective, ra.Objective)
				}
			})
		}
	}
}

// TestParallelSweepDeterminism asserts the frozen-statistics parallel
// sweep gives bit-identical results for every worker count: the batch
// boundaries and per-point proposals are independent of how the batch
// is chunked across goroutines, and moves apply sequentially.
func TestParallelSweepDeterminism(t *testing.T) {
	rng := stats.NewRNG(33)
	synth := randomDataset(t, rng, 500, 5, 3, 1)
	adultDS := parityAdult(t)

	datasets := []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"synth", synth},
		{"adult", adultDS},
	}
	for _, d := range datasets {
		for _, base := range []Config{
			{K: 8, AutoLambda: true, Seed: 4, RecordHistory: true},
		} {
			var ref *Result
			for _, p := range []int{1, 2, 8, ParallelismAuto} {
				cfg := base
				cfg.Parallelism = p
				res, err := Run(d.ds, cfg)
				if err != nil {
					t.Fatalf("%s parallelism=%d: %v", d.name, p, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if res.Objective != ref.Objective || res.KMeansTerm != ref.KMeansTerm ||
					res.FairnessTerm != ref.FairnessTerm ||
					res.Iterations != ref.Iterations || res.TotalMoves != ref.TotalMoves {
					t.Fatalf("%s parallelism=%d diverged: obj %v vs %v, iters %d vs %d, moves %d vs %d",
						d.name, p, res.Objective, ref.Objective,
						res.Iterations, ref.Iterations, res.TotalMoves, ref.TotalMoves)
				}
				for i := range res.Assign {
					if res.Assign[i] != ref.Assign[i] {
						t.Fatalf("%s parallelism=%d: assignment mismatch at row %d", d.name, p, i)
					}
				}
			}
		}
	}
}

// TestParallelSweepKernelParity runs the parallel sweep under both
// kernels: the frozen-view scoring must make the same decisions too.
func TestParallelSweepKernelParity(t *testing.T) {
	ds := parityAdult(t)
	for _, base := range []Config{
		{K: 6, AutoLambda: true, Seed: 8, Parallelism: 4, RecordHistory: true},
	} {
		agg := base
		naive := base
		naive.naiveKernel = true
		ra, err := Run(ds, agg)
		if err != nil {
			t.Fatalf("aggregate: %v", err)
		}
		rn, err := Run(ds, naive)
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		compareTrajectories(t, "parallel-kernels", ra, rn)
	}
}

// TestParallelSweepMonotoneObjective checks the re-validation step
// keeps parallel descent monotone: the recorded per-iteration objective
// never increases.
func TestParallelSweepMonotoneObjective(t *testing.T) {
	rng := stats.NewRNG(55)
	ds := randomDataset(t, rng, 600, 5, 3, 1)
	res, err := Run(ds, Config{K: 9, AutoLambda: true, Seed: 6, Parallelism: 8, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, h := range res.History {
		if h.Objective > prev*(1+1e-12) {
			t.Fatalf("objective rose at iteration %d: %v -> %v", h.Iteration, prev, h.Objective)
		}
		prev = h.Objective
	}
}
