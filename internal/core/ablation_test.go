package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// TestDeltaMatchesNaiveUnderAblationKnobs extends the central delta
// property to the ablation configuration space: arbitrary cluster-
// weight exponents, disabled domain normalization and per-attribute
// weights must all keep the incremental solver consistent with the
// from-scratch evaluation.
func TestDeltaMatchesNaiveUnderAblationKnobs(t *testing.T) {
	rng := stats.NewRNG(101)
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(25)
		k := 2 + rng.Intn(3)
		ds := randomDataset(t, rng, n, 2, 2, 1)
		cfg := Config{
			K:                     k,
			Lambda:                []float64{1, 10, 200}[rng.Intn(3)],
			ClusterWeightExponent: []float64{1, 1.5, 2, 3}[rng.Intn(4)],
			NoDomainNormalization: rng.Bernoulli(0.5),
			SkewCompensation:      rng.Bernoulli(0.5),
			Weights: map[string]float64{
				"cat0": 0.5 + rng.Float64(),
				"cat1": rng.Float64() * 2,
				"num0": rng.Float64(),
			},
		}
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		st := newState(ds, &cfg, cfg.Lambda, append([]int(nil), assign...), nil)

		baseFair, err := FairnessDeviationWeighted(ds, nil, assign, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 8; probe++ {
			i := rng.Intn(n)
			from := st.assign[i]
			to := rng.Intn(k)
			if to == from {
				continue
			}
			dFair := (st.deviationWithDelta(from, i, -1) - st.devCache[from]) +
				(st.deviationWithDelta(to, i, +1) - st.devCache[to])

			moved := append([]int(nil), st.assign...)
			moved[i] = to
			afterFair, err := FairnessDeviationWeighted(ds, nil, moved, k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			naive := afterFair - baseFair
			if math.Abs(dFair-naive) > 1e-9+1e-7*math.Abs(naive) {
				t.Fatalf("trial %d probe %d: fairness delta %v, naive %v (cfg %+v)",
					trial, probe, dFair, naive, cfg)
			}
			st.move(i, from, to)
			baseFair = afterFair
		}
	}
}

// TestExponentOneRewardsSkew verifies the phenomenon Section 4.1 warns
// about: with a linear cluster weight (e=1) the fairness loss of a
// maximally skewed 2-cluster split is weighted less aggressively than
// with the paper's e=2 relative to a balanced split, i.e. the squared
// weighting penalizes large skewed clusters harder.
func TestExponentExposesClusterWeightTradeoff(t *testing.T) {
	rng := stats.NewRNG(7)
	ds := randomDataset(t, rng, 40, 2, 1, 0)
	assign := make([]int, 40)
	// One giant cluster with 39 points, one singleton.
	for i := range assign {
		assign[i] = 0
	}
	assign[0] = 1
	dev1, err := FairnessDeviationWeighted(ds, nil, assign, 2, Config{ClusterWeightExponent: 1})
	if err != nil {
		t.Fatal(err)
	}
	dev2, err := FairnessDeviationWeighted(ds, nil, assign, 2, Config{ClusterWeightExponent: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The giant cluster nearly mirrors the dataset (tiny deviation) and
	// the singleton is maximally skewed. e=1 weights the singleton by
	// 1/40, e=2 by 1/1600: the linear exponent must yield the larger
	// total, showing why it can be gamed less easily... and the squared
	// one must not be larger.
	if dev2 > dev1 {
		t.Errorf("e=2 deviation %v exceeds e=1 %v on skewed split", dev2, dev1)
	}
}

// TestNoDomainNormalizationAmplifiesWideAttrs: without Eq. 4's
// normalization a high-cardinality attribute contributes |Values(S)|
// times more, so the total deviation must grow.
func TestNoDomainNormalizationAmplifiesWideAttrs(t *testing.T) {
	rng := stats.NewRNG(13)
	ds := randomDataset(t, rng, 30, 2, 2, 0)
	assign := make([]int, 30)
	for i := range assign {
		assign[i] = rng.Intn(3)
	}
	norm, err := FairnessDeviationWeighted(ds, nil, assign, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := FairnessDeviationWeighted(ds, nil, assign, 3, Config{NoDomainNormalization: true})
	if err != nil {
		t.Fatal(err)
	}
	if raw < norm {
		t.Errorf("unnormalized deviation %v smaller than normalized %v", raw, norm)
	}
}

// TestRunWithAblationKnobs: Run must work end-to-end with non-default
// knobs and stay self-consistent with the matching evaluator.
func TestRunWithAblationKnobs(t *testing.T) {
	rng := stats.NewRNG(17)
	ds := randomDataset(t, rng, 50, 3, 2, 1)
	cfg := Config{K: 3, Lambda: 20, Seed: 4, ClusterWeightExponent: 1, NoDomainNormalization: true}
	res, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fair, err := FairnessDeviationWeighted(ds, nil, res.Assign, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FairnessTerm-fair) > 1e-9+1e-7*fair {
		t.Errorf("FairnessTerm %v, want %v", res.FairnessTerm, fair)
	}
}

// TestSkewCompensationAmplifiesRareValues: with a 90/10 binary split,
// skew compensation multiplies both value deviations by 1/(0.9·0.1) ≈
// 11.1, so the compensated deviation of any clustering must be that
// factor larger (both values share the same multiplier for a binary
// attribute).
func TestSkewCompensationAmplifiesRareValues(t *testing.T) {
	b := dataset.NewBuilder("x")
	b.AddCategoricalSensitive("g")
	for i := 0; i < 30; i++ {
		v := "major"
		if i%10 == 0 {
			v = "minor"
		}
		b.Row([]float64{float64(i)}, []string{v}, nil)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, 30)
	for i := range assign {
		assign[i] = i % 3
	}
	plain, err := FairnessDeviationWeighted(ds, nil, assign, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := FairnessDeviationWeighted(ds, nil, assign, 3, Config{SkewCompensation: true})
	if err != nil {
		t.Fatal(err)
	}
	fr := 0.1
	wantFactor := 1 / (fr * (1 - fr))
	if plain == 0 {
		t.Skip("clustering happened to be perfectly fair")
	}
	if math.Abs(comp/plain-wantFactor) > 1e-9 {
		t.Errorf("compensation factor = %v, want %v", comp/plain, wantFactor)
	}
}

// TestSkewCompensationHelpsSkewedAttribute: on data with an 87%-skewed
// attribute (the paper's Race case), the compensated run must achieve
// at-least-as-good fairness on that attribute as the plain run, at
// matched λ.
func TestSkewCompensationHelpsSkewedAttribute(t *testing.T) {
	b := dataset.NewBuilder("x", "y")
	b.AddCategoricalSensitive("race")
	rng := stats.NewRNG(71)
	for i := 0; i < 200; i++ {
		v := "white"
		if i%8 == 0 {
			v = "other"
		}
		blob := 0.0
		// Rare value concentrates in one blob, like real census data.
		if v == "other" || rng.Bernoulli(0.3) {
			blob = 4
		}
		b.Row([]float64{rng.Gaussian(blob, 0.6), rng.Gaussian(0, 1)}, []string{v}, nil)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(ds, Config{K: 3, Lambda: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Run(ds, Config{K: 3, Lambda: 3000, Seed: 2, SkewCompensation: true})
	if err != nil {
		t.Fatal(err)
	}
	devPlain, err := FairnessDeviationWeighted(ds, nil, plain.Assign, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	devComp, err := FairnessDeviationWeighted(ds, nil, comp.Assign, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if devComp > devPlain+1e-9 {
		t.Errorf("skew compensation worsened plain-metric fairness: %v vs %v", devComp, devPlain)
	}
}
