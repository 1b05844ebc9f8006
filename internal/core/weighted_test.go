package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/testfix"
)

// unitWeights returns an explicit all-ones weight vector.
func unitWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// TestWeightedUnitParity: RunWeighted with unit weights must reproduce
// Run bit-for-bit — same assignments, same iteration count, identical
// IEEE-754 objective bits — across kernel corners and sweep strategies.
// This is the contract that makes the weighted kernel a strict
// generalization rather than a second solver.
func TestWeightedUnitParity(t *testing.T) {
	datasets := map[string]*dataset.Dataset{
		"synth": testfix.Synth(21, 400, 6, 3, 0),
		"mixed": testfix.Synth(22, 300, 4, 2, 2),
		"adult": testfix.Adult(11, 1500),
	}
	configs := map[string]Config{
		"seq":        {K: 7, AutoLambda: true, Seed: 3},
		"weights":    {K: 5, Lambda: 40, Seed: 9, Weights: map[string]float64{"cat0": 2.5}},
		"par2":       {K: 7, AutoLambda: true, Seed: 3, Parallelism: 2},
		"partition":  {K: 7, AutoLambda: true, Seed: 3, Init: 1 /* RandomPartition */},
		"naivekern":  {K: 5, AutoLambda: true, Seed: 7, naiveKernel: true},
		"tolbounded": {K: 6, AutoLambda: true, Seed: 5, Tol: 1e-6},
	}
	for dsName, ds := range datasets {
		for cfgName, cfg := range configs {
			if cfgName == "weights" && dsName == "adult" {
				continue // adult has no cat0 attribute
			}
			ref, err := Run(ds, cfg)
			if err != nil {
				t.Fatalf("%s/%s: Run: %v", dsName, cfgName, err)
			}
			got, err := RunWeighted(ds, unitWeights(ds.N()), cfg)
			if err != nil {
				t.Fatalf("%s/%s: RunWeighted: %v", dsName, cfgName, err)
			}
			if got.Iterations != ref.Iterations || got.Converged != ref.Converged {
				t.Errorf("%s/%s: iterations %d/%v vs %d/%v", dsName, cfgName,
					got.Iterations, got.Converged, ref.Iterations, ref.Converged)
			}
			for i := range ref.Assign {
				if got.Assign[i] != ref.Assign[i] {
					t.Fatalf("%s/%s: assign[%d] = %d, want %d", dsName, cfgName, i, got.Assign[i], ref.Assign[i])
				}
			}
			if math.Float64bits(got.Objective) != math.Float64bits(ref.Objective) {
				t.Errorf("%s/%s: objective bits differ: %v vs %v", dsName, cfgName, got.Objective, ref.Objective)
			}
			if math.Float64bits(got.KMeansTerm) != math.Float64bits(ref.KMeansTerm) ||
				math.Float64bits(got.FairnessTerm) != math.Float64bits(ref.FairnessTerm) {
				t.Errorf("%s/%s: decomposition differs: (%v, %v) vs (%v, %v)", dsName, cfgName,
					got.KMeansTerm, got.FairnessTerm, ref.KMeansTerm, ref.FairnessTerm)
			}
			if got.Masses == nil {
				t.Errorf("%s/%s: weighted run did not report Masses", dsName, cfgName)
			}
		}
	}
}

// blobDataset builds k well-separated Gaussian blobs with a correlated
// binary sensitive attribute — structure clear enough that weighted
// descent and descent over explicit duplicates reach the same optimum.
func blobDataset(seed int64, n, blobs int) *dataset.Dataset {
	rng := stats.NewRNG(seed)
	b := dataset.NewBuilder("x", "y")
	b.AddCategoricalSensitive("g")
	for i := 0; i < n; i++ {
		blob := i % blobs
		v := "a"
		if rng.Float64() < 0.2+0.1*float64(blob) {
			v = "b"
		}
		b.Row([]float64{
			rng.Gaussian(float64(blob)*12, 0.8),
			rng.Gaussian(float64(blob%2)*9, 0.8),
		}, []string{v}, nil)
	}
	ds, err := b.Build()
	if err != nil {
		panic(err)
	}
	return ds
}

// duplicate expands ds and a per-row integer weight vector into the
// explicit multiset (copies adjacent), returning the expanded dataset
// and a map from expanded row to source row.
func duplicate(ds *dataset.Dataset, w []int) (*dataset.Dataset, []int) {
	var idx []int
	for i, wi := range w {
		for r := 0; r < wi; r++ {
			idx = append(idx, i)
		}
	}
	return ds.Subset(idx), idx
}

// TestWeightedDuplicationParity: FairKM over integer-weighted rows must
// match FairKM over the explicitly duplicated dataset — same final
// assignment for every duplicate group, objective equal within 1e-9
// relative — when both start from the same partition.
func TestWeightedDuplicationParity(t *testing.T) {
	ds := blobDataset(5, 240, 4)
	rng := stats.NewRNG(17)
	w := make([]int, ds.N())
	wf := make([]float64, ds.N())
	for i := range w {
		w[i] = 1 + rng.Intn(3)
		wf[i] = float64(w[i])
	}
	dup, src := duplicate(ds, w)

	const k = 4
	const lambda = 200
	initW := make([]int, ds.N())
	for i := range initW {
		initW[i] = i % k
	}
	initD := make([]int, dup.N())
	for j, i := range src {
		initD[j] = initW[i]
	}

	wres, err := RunWeighted(ds, wf, Config{K: k, Lambda: lambda, initAssign: initW})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := Run(dup, Config{K: k, Lambda: lambda, initAssign: initD})
	if err != nil {
		t.Fatal(err)
	}

	// Every duplicate must sit where its weighted original sits.
	for j, i := range src {
		if dres.Assign[j] != wres.Assign[i] {
			t.Fatalf("duplicate %d (source row %d): cluster %d, weighted run says %d",
				j, i, dres.Assign[j], wres.Assign[i])
		}
	}
	if rel := math.Abs(wres.Objective-dres.Objective) / math.Abs(dres.Objective); rel > 1e-9 {
		t.Errorf("objective %v (weighted) vs %v (duplicated): rel err %v", wres.Objective, dres.Objective, rel)
	}
	if rel := math.Abs(wres.FairnessTerm-dres.FairnessTerm) / (1 + math.Abs(dres.FairnessTerm)); rel > 1e-9 {
		t.Errorf("fairness term %v vs %v", wres.FairnessTerm, dres.FairnessTerm)
	}
	// Cluster masses must equal duplicated cardinalities.
	for c := 0; c < k; c++ {
		if math.Abs(wres.Masses[c]-float64(dres.Sizes[c])) > 1e-9 {
			t.Errorf("cluster %d mass %v, duplicated size %d", c, wres.Masses[c], dres.Sizes[c])
		}
	}
}

// TestEvaluateObjectiveWeightedAgainstDuplication: the from-scratch
// weighted objective of ANY assignment must equal the unweighted
// objective of the duplicated data under the corresponding assignment —
// the static form of duplication parity, free of trajectory concerns.
func TestEvaluateObjectiveWeightedAgainstDuplication(t *testing.T) {
	ds := testfix.Synth(31, 150, 5, 2, 1)
	rng := stats.NewRNG(8)
	w := make([]int, ds.N())
	wf := make([]float64, ds.N())
	for i := range w {
		w[i] = 1 + rng.Intn(4)
		wf[i] = float64(w[i])
	}
	dup, src := duplicate(ds, w)
	const k = 6
	for trial := 0; trial < 5; trial++ {
		assign := make([]int, ds.N())
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		expanded := make([]int, dup.N())
		for j, i := range src {
			expanded[j] = assign[i]
		}
		wv, err := EvaluateObjectiveWeighted(ds, wf, assign, k, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		dv, err := EvaluateObjective(dup, expanded, k, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(wv.Objective-dv.Objective) / (1 + math.Abs(dv.Objective)); rel > 1e-9 {
			t.Errorf("trial %d: objective %v vs duplicated %v", trial, wv.Objective, dv.Objective)
		}
		if rel := math.Abs(wv.FairnessTerm-dv.FairnessTerm) / (1 + math.Abs(dv.FairnessTerm)); rel > 1e-9 {
			t.Errorf("trial %d: fairness %v vs duplicated %v", trial, wv.FairnessTerm, dv.FairnessTerm)
		}
	}
}

// TestEvaluateObjectiveWeightedUnitMatchesUnweighted pins the from-
// scratch evaluators to recorded IEEE-754 bits: EvaluateObjective's
// three terms and the nil-row-weight fairness deviation, with and
// without attribute weights, on an Adult table and a synthetic one, both with
// a numeric sensitive attribute and an assignment that leaves cluster 3
// empty. The bits were recorded from the separate unweighted evaluators
// before they were folded into the weighted ones, so the unit-weight
// path must reproduce them exactly.
func TestEvaluateObjectiveWeightedUnitMatchesUnweighted(t *testing.T) {
	adultDS := testfix.Adult(5, 400)
	age := make([]float64, adultDS.N())
	for i, x := range adultDS.Features {
		age[i] = 17 + 73*x[0]
	}
	adultDS.Sensitive = append(adultDS.Sensitive, &dataset.SensitiveAttr{Name: "age", Kind: dataset.Numeric, Reals: age})
	fixtures := map[string]*dataset.Dataset{
		"adult": adultDS,
		"synth": testfix.Synth(33, 120, 4, 2, 1),
	}
	const k, lambda = 5, 30.0
	assigns := map[string][]int{}
	for name, ds := range fixtures {
		rng := stats.NewRNG(2)
		a := make([]int, ds.N())
		for i := range a {
			if a[i] = rng.Intn(k - 1); a[i] == 3 {
				a[i] = k - 1 // cluster 3 stays empty
			}
		}
		assigns[name] = a
	}
	attrW := map[string]float64{"gender": 2.5, "race": 0.75, "cat0": 3, "num0": 0.5, "age": 1.5}
	cases := []struct {
		data, knob         string
		cfg                Config
		km, fair, obj, dev uint64
	}{
		{"adult", "default", Config{}, 0x40612188f6e70004, 0x3fcbd4db21633b7c, 0x4061f24562616842, 0x3fcbd4db21633b7c},
		{"adult", "attr-weights", Config{Weights: attrW}, 0x40612188f6e70004, 0x3fd4de5e97a4bfe1, 0x40625a9081c9a742, 0x3fd4de5e97a4bfe1},
		{"synth", "default", Config{}, 0x409c5b1f3e510448, 0x3fd0ec95398e9286, 0x409c7adad61cef9b, 0x3fd0ec95398e9286},
		{"synth", "attr-weights", Config{Weights: attrW}, 0x409c5b1f3e510448, 0x3fc21bbefa8f36ee, 0x409c6c19415bea8b, 0x3fc21bbefa8f36ee},
	}
	for _, tc := range cases {
		ds, assign := fixtures[tc.data], assigns[tc.data]
		check := func(what string, got float64, want uint64) {
			if math.Float64bits(got) != want {
				t.Errorf("%s/%s %s = %v (%#x), want %#x", tc.data, tc.knob, what, got, math.Float64bits(got), want)
			}
		}
		obj, err := EvaluateObjective(ds, assign, k, lambda, tc.cfg.Weights)
		if err != nil {
			t.Fatal(err)
		}
		check("KMeansTerm", obj.KMeansTerm, tc.km)
		check("FairnessTerm", obj.FairnessTerm, tc.fair)
		check("Objective", obj.Objective, tc.obj)
		dev, err := FairnessDeviationWeighted(ds, nil, assign, k, tc.cfg.Weights)
		if err != nil {
			t.Fatal(err)
		}
		check("FairnessDeviationWeighted", dev, tc.dev)
	}
}

// TestRunWeightedStateMatchesReference: the incremental weighted
// sufficient statistics must land on the same objective the from-
// scratch weighted evaluator reports for the final assignment.
func TestRunWeightedStateMatchesReference(t *testing.T) {
	ds := testfix.Synth(41, 200, 5, 2, 1)
	rng := stats.NewRNG(12)
	wf := make([]float64, ds.N())
	for i := range wf {
		wf[i] = 0.25 + 3*rng.Float64() // fractional masses too
	}
	res, err := RunWeighted(ds, wf, Config{K: 6, Lambda: 75, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := EvaluateObjectiveWeighted(ds, wf, res.Assign, 6, 75, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-ref.Objective) > 1e-9*(1+math.Abs(ref.Objective)) {
		t.Errorf("incremental objective %v vs reference %v", res.Objective, ref.Objective)
	}
	if math.Abs(res.KMeansTerm-ref.KMeansTerm) > 1e-9*(1+ref.KMeansTerm) {
		t.Errorf("KM term %v vs %v", res.KMeansTerm, ref.KMeansTerm)
	}
	if math.Abs(res.FairnessTerm-ref.FairnessTerm) > 1e-9*(1+ref.FairnessTerm) {
		t.Errorf("fairness term %v vs %v", res.FairnessTerm, ref.FairnessTerm)
	}
}

// TestRunWeightedValidation: weight vector hygiene.
func TestRunWeightedValidationCore(t *testing.T) {
	ds := testfix.Synth(51, 30, 3, 1, 0)
	if _, err := RunWeighted(ds, make([]float64, 10), Config{K: 3}); err == nil {
		t.Error("arity mismatch accepted")
	}
	bad := unitWeights(ds.N())
	bad[4] = 0
	if _, err := RunWeighted(ds, bad, Config{K: 3}); err == nil {
		t.Error("zero weight accepted")
	}
	bad[4] = math.NaN()
	if _, err := RunWeighted(ds, bad, Config{K: 3}); err == nil {
		t.Error("NaN weight accepted")
	}
}
