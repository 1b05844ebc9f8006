package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// randomDataset builds a small random mixed dataset for white-box tests.
func randomDataset(t *testing.T, rng *stats.RNG, n, dim, nCat, nNum int) *dataset.Dataset {
	t.Helper()
	b := dataset.NewBuilder(featureNames(dim)...)
	catDomains := make([][]string, nCat)
	for a := 0; a < nCat; a++ {
		b.AddCategoricalSensitive(catName(a))
		size := 2 + rng.Intn(4)
		dom := make([]string, size)
		for v := range dom {
			dom[v] = string(rune('a' + v))
		}
		catDomains[a] = dom
	}
	for a := 0; a < nNum; a++ {
		b.AddNumericSensitive(numName(a))
	}
	for i := 0; i < n; i++ {
		feats := make([]float64, dim)
		for j := range feats {
			feats[j] = rng.Gaussian(0, 2)
		}
		cats := make([]string, nCat)
		for a := range cats {
			cats[a] = catDomains[a][rng.Intn(len(catDomains[a]))]
		}
		nums := make([]float64, nNum)
		for a := range nums {
			nums[a] = rng.Gaussian(40, 10)
		}
		b.Row(feats, cats, nums)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatalf("building random dataset: %v", err)
	}
	return ds
}

func featureNames(dim int) []string {
	names := make([]string, dim)
	for i := range names {
		names[i] = "f" + string(rune('0'+i))
	}
	return names
}

func catName(i int) string { return "cat" + string(rune('0'+i)) }
func numName(i int) string { return "num" + string(rune('0'+i)) }

// TestDeltaMatchesNaiveObjective is the central correctness property:
// the incremental move deltas used by bestMove must equal the difference
// of full from-scratch objective evaluations (Eqs. 1, 7, 22).
func TestDeltaMatchesNaiveObjective(t *testing.T) {
	rng := stats.NewRNG(7)
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(30)
		k := 2 + rng.Intn(4)
		if k > n {
			k = n
		}
		ds := randomDataset(t, rng, n, 1+rng.Intn(4), 1+rng.Intn(3), rng.Intn(2))
		lambda := []float64{0, 0.5, 3, 50}[rng.Intn(4)]
		cfg := Config{K: k, Lambda: lambda}
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		st := newState(ds, &cfg, lambda, append([]int(nil), assign...), nil)

		base, err := EvaluateObjective(ds, assign, k, lambda, nil)
		if err != nil {
			t.Fatalf("trial %d: naive objective: %v", trial, err)
		}
		for probe := 0; probe < 10; probe++ {
			i := rng.Intn(n)
			from := st.assign[i]
			to := rng.Intn(k)
			if to == from {
				continue
			}
			// Incremental delta, exactly as bestMove computes it.
			dKM := st.km.OutDelta(i, from) + st.km.InDelta(i, to)
			dFair := (st.fair.deviationWithDelta(&st.km, from, i, -1) - st.fair.devCache[from]) +
				(st.fair.deviationWithDelta(&st.km, to, i, +1) - st.fair.devCache[to])
			incr := dKM + lambda*dFair

			moved := append([]int(nil), st.assign...)
			moved[i] = to
			after, err := EvaluateObjective(ds, moved, k, lambda, nil)
			if err != nil {
				t.Fatalf("trial %d: naive objective after move: %v", trial, err)
			}
			naive := after.Objective - base.Objective
			if math.Abs(incr-naive) > 1e-7*(1+math.Abs(naive)) {
				t.Fatalf("trial %d probe %d: delta mismatch: incremental %v naive %v (lambda=%v)",
					trial, probe, incr, naive, lambda)
			}
			// Apply the move so subsequent probes start from fresh state.
			st.move(i, from, to)
			base = after
		}
	}
}

// TestDeltaMatchesNaiveUnderAttrWeights extends the central delta
// property to per-attribute weights (Eq. 23) over categorical and
// numeric sensitive attributes: the incremental solver must stay
// consistent with the from-scratch evaluation.
func TestDeltaMatchesNaiveUnderAttrWeights(t *testing.T) {
	rng := stats.NewRNG(101)
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(25)
		k := 2 + rng.Intn(3)
		ds := randomDataset(t, rng, n, 2, 2, 1)
		cfg := Config{
			K:      k,
			Lambda: []float64{1, 10, 200}[rng.Intn(3)],
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

		baseFair, err := FairnessDeviationWeighted(ds, nil, assign, k, cfg.Weights)
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
			dFair := (st.fair.deviationWithDelta(&st.km, from, i, -1) - st.fair.devCache[from]) +
				(st.fair.deviationWithDelta(&st.km, to, i, +1) - st.fair.devCache[to])

			moved := append([]int(nil), st.assign...)
			moved[i] = to
			afterFair, err := FairnessDeviationWeighted(ds, nil, moved, k, cfg.Weights)
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

// TestRunResultSelfConsistent verifies the final Result decomposition
// matches a from-scratch evaluation of the returned assignment.
func TestRunResultSelfConsistent(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(40)
		k := 2 + rng.Intn(4)
		ds := randomDataset(t, rng, n, 3, 2, 1)
		res, err := Run(ds, Config{K: k, Lambda: 5, Seed: int64(trial), MaxIter: 15})
		if err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		want, err := EvaluateObjective(ds, res.Assign, k, 5, nil)
		if err != nil {
			t.Fatalf("trial %d: evaluate: %v", trial, err)
		}
		if math.Abs(res.KMeansTerm-want.KMeansTerm) > 1e-6*(1+want.KMeansTerm) {
			t.Errorf("trial %d: KMeansTerm = %v, want %v", trial, res.KMeansTerm, want.KMeansTerm)
		}
		if math.Abs(res.FairnessTerm-want.FairnessTerm) > 1e-9+1e-6*want.FairnessTerm {
			t.Errorf("trial %d: FairnessTerm = %v, want %v", trial, res.FairnessTerm, want.FairnessTerm)
		}
		if math.Abs(res.Objective-want.Objective) > 1e-6*(1+want.Objective) {
			t.Errorf("trial %d: Objective = %v, want %v", trial, res.Objective, want.Objective)
		}
	}
}

// TestObjectiveNeverIncreases: coordinate descent must be monotone in
// the objective across iterations.
func TestObjectiveNeverIncreases(t *testing.T) {
	rng := stats.NewRNG(13)
	ds := randomDataset(t, rng, 60, 4, 3, 1)
	res, err := Run(ds, Config{K: 4, Lambda: 10, Seed: 3, MaxIter: 20, RecordHistory: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.History) == 0 {
		t.Fatal("expected recorded history")
	}
	for i := 1; i < len(res.History); i++ {
		prev, cur := res.History[i-1].Objective, res.History[i].Objective
		if cur > prev+1e-8*(1+math.Abs(prev)) {
			t.Errorf("objective increased at iteration %d: %v -> %v", i+1, prev, cur)
		}
	}
}

// TestLambdaZeroIgnoresSensitive: with λ=0 the sensitive attributes must
// not influence the clustering; FairKM should match a run on the same
// dataset with sensitive attributes stripped.
func TestLambdaZeroIgnoresSensitive(t *testing.T) {
	rng := stats.NewRNG(17)
	ds := randomDataset(t, rng, 50, 3, 2, 1)
	blind := &dataset.Dataset{FeatureNames: ds.FeatureNames, Features: ds.Features}
	a, err := Run(ds, Config{K: 3, Lambda: 0, Seed: 42})
	if err != nil {
		t.Fatalf("Run with sensitive: %v", err)
	}
	b, err := Run(blind, Config{K: 3, Lambda: 0, Seed: 42})
	if err != nil {
		t.Fatalf("Run blind: %v", err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment %d differs: %d vs %d", i, a.Assign[i], b.Assign[i])
		}
	}
}

// TestHighLambdaImprovesFairness: cranking λ must not worsen the
// fairness term relative to λ=0, on a dataset engineered so that
// feature-coherent clusters are unfair.
func TestHighLambdaImprovesFairness(t *testing.T) {
	// Two feature blobs, each blob dominated by one sensitive value.
	b := dataset.NewBuilder("x")
	b.AddCategoricalSensitive("group")
	rng := stats.NewRNG(23)
	for i := 0; i < 40; i++ {
		g := "m"
		if i%10 == 0 {
			g = "f"
		}
		b.Row([]float64{rng.Gaussian(0, 0.5)}, []string{g}, nil)
	}
	for i := 0; i < 40; i++ {
		g := "f"
		if i%10 == 0 {
			g = "m"
		}
		b.Row([]float64{rng.Gaussian(10, 0.5)}, []string{g}, nil)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	unfair, err := Run(ds, Config{K: 2, Lambda: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The blobs are 10 apart so per-point SSE penalties are ~100; a λ
	// large relative to that is needed to force cross-blob mixing.
	fair, err := Run(ds, Config{K: 2, Lambda: 1e6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fair.FairnessTerm >= unfair.FairnessTerm {
		t.Errorf("fairness term with λ=1e6 (%v) not better than λ=0 (%v)",
			fair.FairnessTerm, unfair.FairnessTerm)
	}
}

func TestValidateErrors(t *testing.T) {
	rng := stats.NewRNG(29)
	ds := randomDataset(t, rng, 10, 2, 1, 0)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"k too small", Config{K: 0}},
		{"k too large", Config{K: 11}},
		{"negative lambda", Config{K: 2, Lambda: -1}},
		{"NaN lambda", Config{K: 2, Lambda: math.NaN()}},
		{"infinite lambda", Config{K: 2, Lambda: math.Inf(1)}},
		{"negative tol", Config{K: 2, Tol: -1}},
		{"NaN tol", Config{K: 2, Tol: math.NaN()}},
		{"infinite tol", Config{K: 2, Tol: math.Inf(1)}},
		{"negative weight", Config{K: 2, Weights: map[string]float64{"cat0": -1}}},
		{"NaN weight", Config{K: 2, Weights: map[string]float64{"cat0": math.NaN()}}},
		{"infinite weight", Config{K: 2, Weights: map[string]float64{"cat0": math.Inf(1)}}},
		{"unknown weight attr", Config{K: 2, Weights: map[string]float64{"nope": 1}}},
		{"unknown initializer", Config{K: 2, Init: engine.InitMethod(7)}},
		{"negative initializer", Config{K: 2, Init: engine.InitMethod(-1)}},
	}
	for _, tc := range cases {
		if _, err := Run(ds, tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := Run(nil, Config{K: 2}); err == nil {
		t.Error("nil dataset: expected error")
	}
	if _, err := Run(&dataset.Dataset{}, Config{K: 1}); err == nil {
		t.Error("empty dataset: expected error")
	}
}

func TestDefaultLambda(t *testing.T) {
	if got := DefaultLambda(15682, 5); math.Abs(got-9837004.96) > 1e-6 {
		// (15682/5)² = 3136.4² = 9837004.96 — the paper rounds this to
		// "10⁶" order of magnitude in Section 5.4.
		t.Errorf("DefaultLambda(15682,5) = %v", got)
	}
	if got := DefaultLambda(1000, 10); got != 10000 {
		t.Errorf("DefaultLambda(1000,10) = %v, want 10000", got)
	}
}

// TestFairnessDeviationZeroForProportionalClusters: a clustering whose
// clusters each mirror the dataset distribution exactly must have zero
// fairness deviation.
func TestFairnessDeviationZeroForProportionalClusters(t *testing.T) {
	b := dataset.NewBuilder("x")
	b.AddCategoricalSensitive("g")
	// 4 copies of each (cluster, value) combination: clusters 0 and 1
	// each get 2 "a" and 2 "b".
	vals := []string{"a", "a", "b", "b", "a", "a", "b", "b"}
	for i, v := range vals {
		b.Row([]float64{float64(i)}, []string{v}, nil)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	assign := []int{0, 0, 0, 0, 1, 1, 1, 1}
	dev, err := FairnessDeviationWeighted(ds, nil, assign, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dev != 0 {
		t.Errorf("deviation = %v, want 0", dev)
	}
	// And a maximally skewed clustering must be strictly positive.
	skew := []int{0, 0, 1, 1, 0, 0, 1, 1}
	dev2, err := FairnessDeviationWeighted(ds, nil, skew, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dev2 <= 0 {
		t.Errorf("skewed deviation = %v, want > 0", dev2)
	}
}

// TestWeightsScaleFairnessTerm: doubling all attribute weights must
// double the fairness deviation.
func TestWeightsScaleFairnessTerm(t *testing.T) {
	rng := stats.NewRNG(31)
	ds := randomDataset(t, rng, 30, 2, 2, 1)
	assign := make([]int, 30)
	for i := range assign {
		assign[i] = rng.Intn(3)
	}
	w1 := map[string]float64{"cat0": 1, "cat1": 1, "num0": 1}
	w2 := map[string]float64{"cat0": 2, "cat1": 2, "num0": 2}
	d1, err := FairnessDeviationWeighted(ds, nil, assign, 3, w1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := FairnessDeviationWeighted(ds, nil, assign, 3, w2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d2-2*d1) > 1e-12 {
		t.Errorf("doubling weights: %v vs 2*%v", d2, d1)
	}
}

// TestZeroWeightDisablesAttribute: an attribute with weight 0 must not
// contribute; deviation should equal a dataset without it.
func TestZeroWeightDisablesAttribute(t *testing.T) {
	rng := stats.NewRNG(37)
	ds := randomDataset(t, rng, 30, 2, 2, 0)
	assign := make([]int, 30)
	for i := range assign {
		assign[i] = rng.Intn(3)
	}
	dZero, err := FairnessDeviationWeighted(ds, nil, assign, 3, map[string]float64{"cat1": 0})
	if err != nil {
		t.Fatal(err)
	}
	only, err := ds.WithSensitive("cat0")
	if err != nil {
		t.Fatal(err)
	}
	dOnly, err := FairnessDeviationWeighted(only, nil, assign, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dZero-dOnly) > 1e-12 {
		t.Errorf("zero weight %v vs attribute removed %v", dZero, dOnly)
	}
}

// TestNumericSensitiveOnly exercises the Eq. 22 extension without any
// categorical attribute: clusters should pull their numeric-sensitive
// means towards the dataset mean as λ grows.
func TestNumericSensitiveOnly(t *testing.T) {
	b := dataset.NewBuilder("x")
	b.AddNumericSensitive("age")
	rng := stats.NewRNG(43)
	for i := 0; i < 50; i++ {
		// Feature correlates with age: blob 0 young, blob 1 old.
		if i < 25 {
			b.Row([]float64{rng.Gaussian(0, 1)}, nil, []float64{rng.Gaussian(25, 2)})
		} else {
			b.Row([]float64{rng.Gaussian(8, 1)}, nil, []float64{rng.Gaussian(55, 2)})
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Run(ds, Config{K: 2, Lambda: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Run(ds, Config{K: 2, Lambda: 1e6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tight.FairnessTerm >= loose.FairnessTerm {
		t.Errorf("numeric fairness term did not improve: λ=1e6 %v vs λ=0 %v",
			tight.FairnessTerm, loose.FairnessTerm)
	}
}

// TestSweepMatchesKMeansStyleDescent: with a single cluster there is
// nothing to optimize and the result must be stable immediately.
func TestSingleCluster(t *testing.T) {
	rng := stats.NewRNG(47)
	ds := randomDataset(t, rng, 12, 2, 1, 0)
	res, err := Run(ds, Config{K: 1, Lambda: 4, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("single-cluster run did not converge")
	}
	if res.Sizes[0] != 12 {
		t.Errorf("size = %d, want 12", res.Sizes[0])
	}
	// With one cluster, cluster distribution == dataset distribution.
	if res.FairnessTerm > 1e-15 {
		t.Errorf("fairness term %v, want 0 for k=1", res.FairnessTerm)
	}
}

// TestInitMethods: all init methods must produce valid assignments.
func TestInitMethods(t *testing.T) {
	rng := stats.NewRNG(53)
	ds := randomDataset(t, rng, 30, 3, 1, 0)
	for _, init := range []engine.InitMethod{engine.RandomPartition, engine.KMeansPlusPlus, engine.RandomPoints} {
		res, err := Run(ds, Config{K: 3, Lambda: 1, Seed: 9, Init: init})
		if err != nil {
			t.Fatalf("init %v: %v", init, err)
		}
		for i, c := range res.Assign {
			if c < 0 || c >= 3 {
				t.Fatalf("init %v: row %d assigned to %d", init, i, c)
			}
		}
	}
}

// TestDeterminism: identical seeds must give identical results.
func TestDeterminism(t *testing.T) {
	rng := stats.NewRNG(59)
	ds := randomDataset(t, rng, 40, 3, 2, 1)
	a, err := Run(ds, Config{K: 3, AutoLambda: true, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ds, Config{K: 3, AutoLambda: true, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective {
		t.Errorf("objectives differ across identical runs: %v vs %v", a.Objective, b.Objective)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
}

func TestPredict(t *testing.T) {
	rng := stats.NewRNG(61)
	ds := randomDataset(t, rng, 40, 3, 1, 0)
	res, err := Run(ds, Config{K: 3, Lambda: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Predicting a training point must return a cluster whose centroid
	// is at least as close as the assigned one (assignment under the
	// fairness term may differ from nearest-centroid).
	for i := 0; i < ds.N(); i++ {
		c := res.Predict(ds.Features[i])
		dPred := stats.SqDist(ds.Features[i], res.Centroids[c])
		dAssigned := stats.SqDist(ds.Features[i], res.Centroids[res.Assign[i]])
		if dPred > dAssigned+1e-12 {
			t.Fatalf("row %d: predicted cluster %d farther than assigned %d", i, c, res.Assign[i])
		}
	}
	// Dimensionality mismatch panics.
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	res.Predict([]float64{1})
}
