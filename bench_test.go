// Benchmarks regenerating every table and figure of the FairKM paper
// (EDBT 2020) plus ablations of the design choices DESIGN.md calls out.
//
// Table/figure benches run the same code paths as cmd/experiments at a
// reduced scale (2 restarts, 6000-row Adult generation) so the whole
// suite completes in minutes; run cmd/experiments for full-scale
// numbers. Quality/fairness readings are attached to the benchmark
// output via b.ReportMetric, so `go test -bench=.` doubles as a compact
// reproduction report.
package fairclust

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data/adult"
	"repro/internal/data/kinematics"
	"repro/internal/dataset"
	"repro/internal/doc2vec"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/hungarian"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/zgya"
)

// benchOptions is the reduced scale used by the table/figure benches.
func benchOptions() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Reps = 2
	opts.AdultRows = 6000
	opts.SilhouetteSample = 1000
	return opts
}

// warmAdult / warmKin pre-generate the cached datasets so dataset
// construction is excluded from benchmark timings.
func warmAdult(b *testing.B) *dataset.Dataset {
	b.Helper()
	ds, err := experiments.LoadAdult(benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func warmKin(b *testing.B) *dataset.Dataset {
	b.Helper()
	ds, err := experiments.LoadKinematics(benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// ---- Tables ----

// BenchmarkTable5_AdultQuality regenerates Table 5 (clustering quality
// on Adult, k ∈ {5, 15}).
func BenchmarkTable5_AdultQuality(b *testing.B) {
	warmAdult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		s := t.Suites[0]
		b.ReportMetric(s.KMeans.CO, "CO-kmeans")
		b.ReportMetric(s.ZGYAAvg.CO, "CO-zgya")
		b.ReportMetric(s.FairKM.CO, "CO-fairkm")
	}
}

// BenchmarkTable6_AdultFairness regenerates Table 6 (fairness on Adult,
// per sensitive attribute, k ∈ {5, 15}).
func BenchmarkTable6_AdultFairness(b *testing.B) {
	warmAdult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		s := t.Suites[0]
		b.ReportMetric(s.KMeansFair[experiments.MeanAttr].AE, "AE-kmeans")
		b.ReportMetric(s.ZGYAFair[experiments.MeanAttr].AE, "AE-zgya")
		b.ReportMetric(s.FairKMFair[experiments.MeanAttr].AE, "AE-fairkm")
	}
}

// BenchmarkTable7_KinematicsQuality regenerates Table 7 (clustering
// quality on Kinematics, k=5).
func BenchmarkTable7_KinematicsQuality(b *testing.B) {
	warmKin(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		s := t.Suites[0]
		b.ReportMetric(s.KMeans.CO, "CO-kmeans")
		b.ReportMetric(s.FairKM.CO, "CO-fairkm")
		b.ReportMetric(s.FairKM.SH, "SH-fairkm")
	}
}

// BenchmarkTable8_KinematicsFairness regenerates Table 8 (fairness on
// Kinematics, per problem type, k=5).
func BenchmarkTable8_KinematicsFairness(b *testing.B) {
	warmKin(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		s := t.Suites[0]
		b.ReportMetric(s.KMeansFair[experiments.MeanAttr].AE, "AE-kmeans")
		b.ReportMetric(s.ZGYAFair[experiments.MeanAttr].AE, "AE-zgya")
		b.ReportMetric(s.FairKMFair[experiments.MeanAttr].AE, "AE-fairkm")
	}
}

// ---- Figures ----

func benchComparisonFigure(b *testing.B, run func(experiments.Options) (*experiments.ComparisonFigure, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		f, err := run(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Suite.ZGYAFair[experiments.MeanAttr].Get(f.Measure), "zgya")
		b.ReportMetric(f.Suite.FairKMFair[experiments.MeanAttr].Get(f.Measure), "fairkm-all")
		b.ReportMetric(f.Suite.FairKMSingleFair[experiments.MeanAttr].Get(f.Measure), "fairkm-s")
	}
}

// BenchmarkFig1_AdultAW regenerates Figure 1 (Adult, AW per attribute).
func BenchmarkFig1_AdultAW(b *testing.B) {
	warmAdult(b)
	b.ResetTimer()
	benchComparisonFigure(b, experiments.RunFig1)
}

// BenchmarkFig2_AdultMW regenerates Figure 2 (Adult, MW per attribute).
func BenchmarkFig2_AdultMW(b *testing.B) {
	warmAdult(b)
	b.ResetTimer()
	benchComparisonFigure(b, experiments.RunFig2)
}

// BenchmarkFig3_KinematicsAW regenerates Figure 3 (Kinematics, AW).
func BenchmarkFig3_KinematicsAW(b *testing.B) {
	warmKin(b)
	b.ResetTimer()
	benchComparisonFigure(b, experiments.RunFig3)
}

// BenchmarkFig4_KinematicsMW regenerates Figure 4 (Kinematics, MW).
func BenchmarkFig4_KinematicsMW(b *testing.B) {
	warmKin(b)
	b.ResetTimer()
	benchComparisonFigure(b, experiments.RunFig4)
}

// BenchmarkFig5_LambdaVsQuality regenerates Figure 5 (Kinematics CO and
// SH across the λ sweep).
func BenchmarkFig5_LambdaVsQuality(b *testing.B) {
	warmKin(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		first, last := f.Sweep.Points[0], f.Sweep.Points[len(f.Sweep.Points)-1]
		b.ReportMetric(first.CO, "CO-lam1000")
		b.ReportMetric(last.CO, "CO-lam10000")
	}
}

// BenchmarkFig6_LambdaVsDeviation regenerates Figure 6 (Kinematics DevC
// and DevO across the λ sweep).
func BenchmarkFig6_LambdaVsDeviation(b *testing.B) {
	warmKin(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := f.Sweep.Points[len(f.Sweep.Points)-1]
		b.ReportMetric(last.DevC, "DevC-lam10000")
		b.ReportMetric(last.DevO, "DevO-lam10000")
	}
}

// BenchmarkFig7_LambdaVsFairness regenerates Figure 7 (Kinematics
// fairness metrics across the λ sweep).
func BenchmarkFig7_LambdaVsFairness(b *testing.B) {
	warmKin(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		first, last := f.Sweep.Points[0], f.Sweep.Points[len(f.Sweep.Points)-1]
		b.ReportMetric(first.Fair.AE, "AE-lam1000")
		b.ReportMetric(last.Fair.AE, "AE-lam10000")
	}
}

// ---- Ablations (design choices called out in DESIGN.md) ----

// ablationDataset is a mid-size Adult sample reused by ablation benches.
func ablationDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	ds, err := adult.Generate(adult.Config{Seed: 3, Rows: 4000})
	if err != nil {
		b.Fatal(err)
	}
	ds.MinMaxNormalize()
	return ds
}

// BenchmarkAblationInit compares FairKM under the paper's random-
// partition initialization against k-means++ seeding.
func BenchmarkAblationInit(b *testing.B) {
	ds := ablationDataset(b)
	for _, init := range []InitMethod{engine.RandomPartition, engine.KMeansPlusPlus} {
		b.Run(init.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(ds, core.Config{K: 5, Lambda: 1e6, Seed: 1, Init: init})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.KMeansTerm, "kmeansTerm")
				b.ReportMetric(res.FairnessTerm*1e6, "fairness-x1e6")
			}
		})
	}
}

// BenchmarkAblationIncrementalVsNaive contrasts the cost of one full
// incremental FairKM sweep with evaluating the objective from scratch
// once per point — the speedup the sufficient-statistics design buys.
func BenchmarkAblationIncrementalVsNaive(b *testing.B) {
	ds, err := adult.Generate(adult.Config{Seed: 3, Rows: 1500})
	if err != nil {
		b.Fatal(err)
	}
	ds.MinMaxNormalize()
	b.Run("incremental-run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(ds, core.Config{K: 5, Lambda: 1e5, Seed: 1, MaxIter: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-objective-per-point", func(b *testing.B) {
		assign := make([]int, ds.N())
		rng := stats.NewRNG(1)
		for i := range assign {
			assign[i] = rng.Intn(5)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// One naive evaluation per 100 points stands in for the
			// O(n) evaluations a from-scratch sweep would need; scale
			// the reading accordingly when comparing.
			for p := 0; p < ds.N(); p += 100 {
				if _, err := core.EvaluateObjective(ds, assign, 5, 1e5, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// ---- Micro-benchmarks of the substrates ----

// BenchmarkFairKMAdultFull times one full-scale FairKM run per
// iteration (paper configuration: 15682 rows, k=5, λ=10⁶).
func BenchmarkFairKMAdultFull(b *testing.B) {
	if testing.Short() {
		b.Skip("full-scale Adult in -short mode")
	}
	ds, err := adult.Generate(adult.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ds.MinMaxNormalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(ds, core.Config{K: 5, Lambda: 1e6, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansAdult times the S-blind baseline on the same data.
func BenchmarkKMeansAdult(b *testing.B) {
	ds := ablationDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmeans.Run(ds.Features, kmeans.Config{K: 5, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZGYAAdult times one single-attribute ZGYA run.
func BenchmarkZGYAAdult(b *testing.B) {
	ds := ablationDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zgya.Run(ds, "gender", zgya.Config{K: 5, AutoLambda: true, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoc2Vec times PV-DBOW training on the kinematics corpus.
func BenchmarkDoc2Vec(b *testing.B) {
	problems := kinematics.Problems(1)
	docs := make([][]string, len(problems))
	for i, p := range problems {
		docs[i] = doc2vec.Tokenize(p.Text)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := doc2vec.Train(docs, doc2vec.Config{Dim: 100, Epochs: 10, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSilhouetteSampled times the sampled silhouette measure used
// throughout the evaluation.
func BenchmarkSilhouetteSampled(b *testing.B) {
	ds := ablationDataset(b)
	res, err := kmeans.Run(ds.Features, kmeans.Config{K: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.SilhouetteSampled(ds.Features, res.Assign, 5, 1000, int64(i))
	}
}

// BenchmarkHungarian times the assignment solver behind DevC.
func BenchmarkHungarian(b *testing.B) {
	rng := stats.NewRNG(1)
	const n = 32
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = rng.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hungarian.Solve(cost); err != nil {
			b.Fatal(err)
		}
	}
}
