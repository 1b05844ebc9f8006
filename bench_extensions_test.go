package fairclust

import (
	"fmt"
	"testing"

	"repro/internal/bera"
	"repro/internal/core"
	"repro/internal/coreset"
	"repro/internal/data/adult"
	"repro/internal/data/kinematics"
	"repro/internal/dataset"
	"repro/internal/eigen"
	"repro/internal/experiments"
	"repro/internal/fairlet"
	"repro/internal/kcenter"
	"repro/internal/kmeans"
	"repro/internal/lp"
	"repro/internal/mcmf"
	"repro/internal/pipeline"
	"repro/internal/proportional"
	"repro/internal/spectral"
	"repro/internal/stats"
	"repro/internal/testfix"
)

// Benchmarks for the extension experiments and the baseline-family
// substrates (LP, flow, eigensolver) implemented beyond the paper's
// own evaluation.

// BenchmarkExtBaselineZoo regenerates the cross-family comparison
// table (cmd/experiments -exp baselines).
func BenchmarkExtBaselineZoo(b *testing.B) {
	warmKin(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.RunBaselines(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range cmp.Rows {
			if row.Method == "FairKM(all)" {
				b.ReportMetric(row.MeanAE, "fairkm-meanAE")
			}
		}
	}
}

// BenchmarkExtScalability regenerates the Section 4.3.1 wall-clock
// scaling measurement.
func BenchmarkExtScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunScalability(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtNumericSensitive regenerates the Eq. 22 numeric-
// sensitive-attribute experiment.
func BenchmarkExtNumericSensitive(b *testing.B) {
	warmAdult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns, err := experiments.RunNumericSensitive(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ns.Blind.AvgGap, "blind-ageGap")
		b.ReportMetric(ns.FairKM.AvgGap, "fairkm-ageGap")
	}
}

// BenchmarkFairletKinematics times fairlet decomposition (min-cost
// flow) on the 161-problem dataset.
func BenchmarkFairletKinematics(b *testing.B) {
	ds := warmKin(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairlet.Run(ds, "Type-1", fairlet.Config{K: 5, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBeraKinematics times the LP-based baseline end to end
// (805-variable LP solved by the dense simplex).
func BenchmarkBeraKinematics(b *testing.B) {
	ds := warmKin(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bera.Run(ds, bera.Config{K: 5, Delta: 0.4, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairSpectralKinematics times constrained spectral clustering
// (dense Jacobi eigensolve on a 161-node graph).
func BenchmarkFairSpectralKinematics(b *testing.B) {
	ds := warmKin(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectral.Run(ds, spectral.Config{K: 5, Fair: true, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairKCenterKinematics times quota-constrained k-center.
func BenchmarkFairKCenterKinematics(b *testing.B) {
	ds := warmKin(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kcenter.Run(ds, kcenter.Config{K: 5, Attr: "Type-1", Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyCaptureKinematics times proportionally fair
// clustering.
func BenchmarkGreedyCaptureKinematics(b *testing.B) {
	ds := warmKin(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proportional.GreedyCapture(ds.Features, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairCoreset times fair coreset construction (the per-group
// reduce of the unit-weight rows, stratified by gender) plus weighted
// K-Means on the compressed set, against full K-Means for context.
func BenchmarkFairCoreset(b *testing.B) {
	ds := ablationDataset(b)
	ones := make([]float64, ds.N())
	for i := range ones {
		ones[i] = 1
	}
	gender := ds.SensitiveByName("gender").Codes
	b.Run("construct+cluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, err := coreset.ReduceGroups(ds.Features, ones, gender, 400, stats.NewRNG(int64(i)))
			if err != nil {
				b.Fatal(err)
			}
			sub := make([][]float64, len(w.Indices))
			for pos, idx := range w.Indices {
				sub[pos] = ds.Features[idx]
			}
			if _, err := kmeans.RunWeighted(sub, w.Weights, kmeans.Config{K: 5, Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-kmeans", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kmeans.Run(ds.Features, kmeans.Config{K: 5, Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimplexLP times the LP substrate on a mid-size random
// program.
func BenchmarkSimplexLP(b *testing.B) {
	rng := stats.NewRNG(1)
	const nv, mc = 60, 40
	p := lp.Problem{C: make([]float64, nv)}
	for j := range p.C {
		p.C[j] = rng.Float64()*2 - 1
	}
	for i := 0; i < mc; i++ {
		row := make([]float64, nv)
		for j := range row {
			row[j] = rng.Float64()
		}
		p.A = append(p.A, row)
		p.Ops = append(p.Ops, lp.LE)
		p.B = append(p.B, 5+rng.Float64()*5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinCostFlow times the flow substrate on a dense bipartite
// assignment instance.
func BenchmarkMinCostFlow(b *testing.B) {
	rng := stats.NewRNG(2)
	const n = 60
	for i := 0; i < b.N; i++ {
		g := mcmf.New(2*n + 2)
		s, t := 0, 2*n+1
		for u := 0; u < n; u++ {
			g.AddEdge(s, 1+u, 1, 0)
			g.AddEdge(n+1+u, t, 1, 0)
			for v := 0; v < n; v++ {
				g.AddEdge(1+u, n+1+v, 1, rng.Float64())
			}
		}
		if _, _, err := g.MinCostFlow(s, t, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJacobiEigen times the symmetric eigensolver at the graph
// sizes fair spectral clustering uses.
func BenchmarkJacobiEigen(b *testing.B) {
	rng := stats.NewRNG(3)
	const n = 120
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.Gaussian(0, 1)
			a[i][j], a[j][i] = v, v
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eigen.SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStream measures the summarize-then-solve pipeline against
// full-data FairKM on Adult (n=6500, streamed in 500-row blocks) and a
// synthetic n=10⁵ mixture. Sub-benchmarks separate the two paths so
// their wall-clocks read side by side; the stream path reports the
// summary size and the summary/full objective ratio as metrics.
func BenchmarkStream(b *testing.B) {
	adultDS, err := adult.Generate(adult.Config{Seed: 1, Rows: 6500, SkipParity: true})
	if err != nil {
		b.Fatal(err)
	}
	adultDS.MinMaxNormalize()
	adultStrat, err := adultDS.WithSensitive("gender", "race")
	if err != nil {
		b.Fatal(err)
	}
	synth := testfix.Synth(101, 100000, 6, 2, 0)

	cases := []struct {
		name  string
		ds    *dataset.Dataset
		k     int
		chunk int
	}{
		{"adult6500", adultStrat, 7, 500},
		{"synth100k", synth, 8, 2048},
	}
	for _, c := range cases {
		c := c
		var fullObj float64
		b.Run("full/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(c.ds, core.Config{K: c.k, AutoLambda: true, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				fullObj = res.Objective
			}
		})
		b.Run("stream/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src := pipeline.NewSliceSource(c.ds, c.chunk)
				res, err := pipeline.FitStream(src, pipeline.Config{
					K: c.k, AutoLambda: true, CoresetSize: 160, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Summary.N()), "summary-rows")
				if fullObj > 0 {
					b.ReportMetric(res.Solve.Objective/fullObj, "obj-ratio")
				}
			}
		})
	}
}

// BenchmarkShard measures sharded summarize-then-solve scaling on the
// same corpora as BenchmarkStream: for each shard count S the dataset
// splits into S contiguous row ranges (pipeline.SliceShards) that feed
// S summarizers ingesting on one worker each, and the merged union
// solves. Sub-benchmark metrics carry the union size and the
// merged-solve objective relative to the S=1 pipeline, which must stay
// flat — sharding buys wall-clock, not objective. Each case's S=1
// objective is fitted once up front, untimed, so a filter that selects
// one sub-benchmark still reports obj-vs-s1.
func BenchmarkShard(b *testing.B) {
	adultDS, err := adult.Generate(adult.Config{Seed: 1, Rows: 6500, SkipParity: true})
	if err != nil {
		b.Fatal(err)
	}
	adultDS.MinMaxNormalize()
	adultStrat, err := adultDS.WithSensitive("gender", "race")
	if err != nil {
		b.Fatal(err)
	}
	synth := testfix.Synth(101, 100000, 6, 2, 0)

	cases := []struct {
		name  string
		ds    *dataset.Dataset
		k     int
		chunk int
	}{
		{"adult6500", adultStrat, 7, 500},
		{"synth100k", synth, 8, 2048},
	}
	for _, c := range cases {
		c := c
		fit := func(b *testing.B, shards int) *pipeline.Result {
			res, err := pipeline.FitSharded(pipeline.SliceShards(c.ds, shards, c.chunk), pipeline.ShardedConfig{
				Config: pipeline.Config{K: c.k, AutoLambda: true, CoresetSize: 160, Seed: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		s1Obj := fit(b, 1).Solve.Objective
		for _, shards := range []int{1, 2, 4, 8} {
			shards := shards
			b.Run(fmt.Sprintf("shards=%d/%s", shards, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := fit(b, shards)
					b.ReportMetric(float64(res.Summary.N()), "summary-rows")
					b.ReportMetric(res.Solve.Objective/s1Obj, "obj-vs-s1")
				}
			})
		}
	}
}

// BenchmarkDatasetGeneration times the two synthetic generators.
func BenchmarkDatasetGeneration(b *testing.B) {
	b.Run("adult-8k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := adultGen(int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kinematics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kinematics.Generate(kinematics.Config{Seed: int64(i), Dim: 100, Epochs: 20}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// adultGen generates a reduced Adult dataset for generator benches.
func adultGen(seed int64) (interface{ N() int }, error) {
	ds, err := adult.Generate(adult.Config{Seed: seed, Rows: 8000})
	if err != nil {
		return nil, err
	}
	return ds, nil
}
