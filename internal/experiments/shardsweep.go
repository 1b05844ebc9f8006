package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// The shard-scaling study measures FitSharded over S contiguous row
// ranges (pipeline.SliceShards, the in-memory twin of the SplitCSV
// byte ranges fairstream reads) across shard counts: how the
// merged-summary solve's objective moves relative to the single-shard
// pipeline and the full-data solve, how much summary the union
// carries, and the ingest+solve wall-clock per S. It backs
// the EXPERIMENTS.md "Shard scaling" section and BenchmarkShard.
// (Wall-clock scaling needs cores; objective quality and determinism
// do not, so the ratios are the portable part of this table.)

// ShardPoint is one (dataset, shard count) grid point.
type ShardPoint struct {
	Name   string
	N      int
	K      int
	Shards int
	// SummaryRows is the merged union's size; Groups the realized
	// strata.
	SummaryRows int
	Groups      int
	// Objective is the merged-summary solve's descent objective;
	// RatioVsS1 compares it to the S=1 (FitStream) solve and RatioVsFull
	// to the full-data solve at the same λ.
	Objective   float64
	RatioVsS1   float64
	RatioVsFull float64
	// Millis is summarize+merge+solve wall-clock.
	Millis float64
}

// ShardStudy is the completed sweep.
type ShardStudy struct {
	M      int
	Points []ShardPoint
}

// ShardStudyShards configures the sweep's shard counts.
var ShardStudyShards = []int{1, 2, 4, 8}

// ShardStudySizes configures the synthetic scale (reduced by tests).
var ShardStudySizes = []int{100000}

// RunShardStudy sweeps shard counts on Adult (n=6500, stratified on
// gender×race) and a synthetic mixture, solving each S with one worker
// per shard.
func RunShardStudy(opts Options) (*ShardStudy, error) {
	opts.normalize()
	const m = 160
	study := &ShardStudy{M: m}

	corpora, err := streamCorpora(opts, ShardStudySizes)
	if err != nil {
		return nil, err
	}
	for _, c := range corpora {
		if err := study.sweep(c.name, c.ds, c.k, c.chunk, m, opts); err != nil {
			return nil, err
		}
	}
	return study, nil
}

// sweep runs one dataset across ShardStudyShards.
func (s *ShardStudy) sweep(name string, ds *dataset.Dataset, k, chunk, m int, opts Options) error {
	full, err := core.Run(ds, core.Config{
		K: k, AutoLambda: true,
		Seed: opts.Seed, MaxIter: maxIter, Parallelism: opts.Parallelism,
	})
	if err != nil {
		return fmt.Errorf("experiments: shardsweep full %s: %w", name, err)
	}
	var s1 float64
	for _, shards := range ShardStudyShards {
		start := time.Now()
		res, err := pipeline.FitSharded(pipeline.SliceShards(ds, shards, chunk), pipeline.ShardedConfig{
			Config: pipeline.Config{
				K: k, AutoLambda: true, CoresetSize: m,
				Seed: opts.Seed, MaxIter: maxIter, Parallelism: opts.Parallelism,
			},
		})
		if err != nil {
			return fmt.Errorf("experiments: shardsweep %s S=%d: %w", name, shards, err)
		}
		pt := ShardPoint{
			Name: name, N: ds.N(), K: k, Shards: shards,
			SummaryRows: res.Summary.N(), Groups: res.Groups,
			Objective: res.Solve.Objective,
			Millis:    ms(start),
		}
		if shards == ShardStudyShards[0] && shards == 1 {
			s1 = res.Solve.Objective
		}
		if s1 > 0 {
			pt.RatioVsS1 = res.Solve.Objective / s1
		}
		pt.RatioVsFull = res.Solve.Objective / full.Objective
		s.Points = append(s.Points, pt)
	}
	return nil
}

// Render prints the study.
func (s *ShardStudy) Render() string {
	tt := newTextTable(fmt.Sprintf("Sharded summarize-then-solve scaling (coreset m=%d per stratum per shard)", s.M))
	tt.row("dataset", "n", "k", "S", "summary", "strata", "objective", "vs S=1", "vs full", "ms")
	tt.rule()
	for _, p := range s.Points {
		tt.row(p.Name, fmt.Sprintf("%d", p.N), fmt.Sprintf("%d", p.K), fmt.Sprintf("%d", p.Shards),
			fmt.Sprintf("%d", p.SummaryRows), fmt.Sprintf("%d", p.Groups),
			f2(p.Objective), f4(p.RatioVsS1), f4(p.RatioVsFull), f2(p.Millis))
	}
	return tt.String()
}
