package zgya

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// correlatedDataset builds two feature blobs where the sensitive value
// correlates strongly with blob membership, so S-blind clustering is
// maximally unfair.
func correlatedDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	b := dataset.NewBuilder("x", "y")
	b.AddCategoricalSensitive("g")
	rng := stats.NewRNG(5)
	for i := 0; i < n/2; i++ {
		g := "a"
		if i%5 == 0 {
			g = "b"
		}
		b.Row([]float64{rng.Gaussian(0, 0.4), rng.Gaussian(0, 0.4)}, []string{g}, nil)
	}
	for i := 0; i < n/2; i++ {
		g := "b"
		if i%5 == 0 {
			g = "a"
		}
		b.Row([]float64{rng.Gaussian(4, 0.4), rng.Gaussian(4, 0.4)}, []string{g}, nil)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestImprovesFairnessOverKMeans(t *testing.T) {
	ds := correlatedDataset(t, 120)
	km, err := kmeans.Run(ds.Features, kmeans.Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	zg, err := Run(ds, "g", Config{K: 2, Lambda: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.SensitiveByName("g")
	fKM := metrics.Fairness(ds, g, km.Assign, 2)
	fZG := metrics.Fairness(ds, g, zg.Assign, 2)
	if fZG.AE >= fKM.AE {
		t.Errorf("ZGYA AE %v not better than K-Means %v", fZG.AE, fKM.AE)
	}
	if fZG.AW >= fKM.AW {
		t.Errorf("ZGYA AW %v not better than K-Means %v", fZG.AW, fKM.AW)
	}
}

func TestLambdaZeroActsLikeKMeans(t *testing.T) {
	ds := correlatedDataset(t, 80)
	zg, err := Run(ds, "g", Config{K: 2, Lambda: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With λ=0 the soft assignment is a pure softmax over distances and
	// hardening recovers nearest-centroid clusters: the two blobs.
	for i := 1; i < 40; i++ {
		if zg.Assign[i] != zg.Assign[0] {
			t.Fatalf("blob 1 split at %d", i)
		}
	}
	for i := 41; i < 80; i++ {
		if zg.Assign[i] != zg.Assign[40] {
			t.Fatalf("blob 2 split at %d", i)
		}
	}
	if zg.Assign[0] == zg.Assign[40] {
		t.Error("blobs merged")
	}
}

func TestKLPenaltyDecreasesWithLambda(t *testing.T) {
	ds := correlatedDataset(t, 100)
	weak, err := Run(ds, "g", Config{K: 2, Lambda: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	strong, err := Run(ds, "g", Config{K: 2, Lambda: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if strong.KLPenalty >= weak.KLPenalty {
		t.Errorf("KL penalty did not decrease: strong %v weak %v", strong.KLPenalty, weak.KLPenalty)
	}
}

func TestErrors(t *testing.T) {
	ds := correlatedDataset(t, 20)
	if _, err := Run(nil, "g", Config{K: 2}); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := Run(ds, "nope", Config{K: 2}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := Run(ds, "g", Config{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Run(ds, "g", Config{K: 21}); err == nil {
		t.Error("K>n accepted")
	}
	if _, err := Run(ds, "g", Config{K: 2, Lambda: -1}); err == nil {
		t.Error("negative lambda accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Run(ds, "g", Config{K: 2, Lambda: bad}); err == nil {
			t.Errorf("lambda %v accepted", bad)
		}
		if _, err := Run(ds, "g", Config{K: 2, Tol: bad}); err == nil {
			t.Errorf("tol %v accepted", bad)
		}
	}
	// Numeric attribute must be rejected.
	b := dataset.NewBuilder("x")
	b.AddNumericSensitive("age")
	b.Row([]float64{1}, nil, []float64{30})
	b.Row([]float64{2}, nil, []float64{40})
	dsNum, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(dsNum, "age", Config{K: 2}); err == nil {
		t.Error("numeric attribute accepted")
	}
}

func TestDeterminism(t *testing.T) {
	ds := correlatedDataset(t, 60)
	a, err := Run(ds, "g", Config{K: 3, AutoLambda: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ds, "g", Config{K: 3, AutoLambda: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
	if a.Objective != b.Objective {
		t.Errorf("objectives differ")
	}
}

func TestSizesAndObjectiveConsistent(t *testing.T) {
	ds := correlatedDataset(t, 60)
	res, err := Run(ds, "g", Config{K: 3, AutoLambda: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != 60 {
		t.Errorf("sizes sum to %d", total)
	}
	if res.Objective < res.SSE {
		t.Errorf("objective %v < SSE %v with non-negative penalty", res.Objective, res.SSE)
	}
	if res.KLPenalty < 0 {
		t.Errorf("negative KL penalty %v", res.KLPenalty)
	}
}
