package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data/adult"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/testfix"
)

// The streaming study measures the summarize-then-solve pipeline
// (internal/pipeline) against full-data FairKM: how close the
// summary-solved objective lands, what the deployed centroids cost on
// the full data, and how the wall clocks compare as n grows past what
// per-sweep coordinate descent enjoys. It backs the EXPERIMENTS.md
// "Streaming operating points" section and BenchmarkStream.

// StreamPoint is one dataset in the streaming study.
type StreamPoint struct {
	Name        string
	N           int
	K           int
	SummaryRows int
	Groups      int
	// FullObjective and StreamObjective are the descent objectives of
	// the full-data solve and the (mass-calibrated) summary solve at
	// the same λ; Ratio is stream/full.
	FullObjective   float64
	StreamObjective float64
	Ratio           float64
	// DeployedFull and DeployedStream are the exact full-data
	// objectives of both solutions deployed by nearest-centroid
	// assignment (the paper's Predict rule), via the second pass.
	DeployedFull   float64
	DeployedStream float64
	// Wall-clock: full solve vs summarize+solve vs the metrics pass.
	FullMillis   float64
	StreamMillis float64
	EvalMillis   float64
}

// StreamStudy compares summary-solve against full-solve across
// datasets.
type StreamStudy struct {
	M      int
	Points []StreamPoint
}

// StreamStudySizes configures RunStreamStudy's synthetic scale; the
// default exercises n = 10⁵ as the scaling demonstration.
var StreamStudySizes = []int{100000}

// RunStreamStudy runs the pipeline and the full solver on Adult
// (n=6500, streamed in 500-row blocks, stratified on gender×race) and
// on synthetic mixtures of n ≥ 10⁵ points, reporting objective ratios
// and wall-clock for each.
func RunStreamStudy(opts Options) (*StreamStudy, error) {
	opts.normalize()
	const m = 160
	study := &StreamStudy{M: m}

	corpora, err := streamCorpora(opts, StreamStudySizes)
	if err != nil {
		return nil, err
	}
	for _, c := range corpora {
		if err := study.measure(c.name, c.ds, c.k, c.chunk, m, opts); err != nil {
			return nil, err
		}
	}
	return study, nil
}

// streamCorpus is one dataset of the streaming and shard studies, with
// the k and chunk size both studies solve it at.
type streamCorpus struct {
	name     string
	ds       *dataset.Dataset
	k, chunk int
}

// streamCorpora builds the corpora shared by the streaming and shard
// studies: Adult (n=6500, min-max scaled, stratified on gender×race;
// k=7 in 500-row chunks), then one synthetic mixture per entry of
// sizes (k=8 in 2048-row chunks).
func streamCorpora(opts Options, sizes []int) ([]streamCorpus, error) {
	adultDS, err := adult.Generate(adult.Config{Seed: opts.Seed, Rows: 6500, SkipParity: true})
	if err != nil {
		return nil, err
	}
	adultDS.MinMaxNormalize()
	adultStrat, err := adultDS.WithSensitive("gender", "race")
	if err != nil {
		return nil, err
	}
	corpora := []streamCorpus{{"adult-6500", adultStrat, 7, 500}}
	for _, n := range sizes {
		synth := testfix.Synth(opts.Seed+100, n, 6, 2, 0)
		corpora = append(corpora, streamCorpus{fmt.Sprintf("synth-%d", n), synth, 8, 2048})
	}
	return corpora, nil
}

// measure runs one dataset through both paths.
func (s *StreamStudy) measure(name string, ds *dataset.Dataset, k, chunk, m int, opts Options) error {
	pt := StreamPoint{Name: name, N: ds.N(), K: k}

	start := time.Now()
	src := pipeline.NewSliceSource(ds, chunk)
	res, err := pipeline.FitStream(src, pipeline.Config{
		K: k, AutoLambda: true, CoresetSize: m,
		Seed: opts.Seed, MaxIter: maxIter, Parallelism: opts.Parallelism,
	})
	if err != nil {
		return fmt.Errorf("experiments: stream %s: %w", name, err)
	}
	pt.StreamMillis = ms(start)
	pt.SummaryRows = res.Summary.N()
	pt.Groups = res.Groups
	pt.StreamObjective = res.Solve.Objective

	start = time.Now()
	full, err := core.Run(ds, core.Config{
		K: k, AutoLambda: true,
		Seed: opts.Seed, MaxIter: maxIter, Parallelism: opts.Parallelism,
	})
	if err != nil {
		return fmt.Errorf("experiments: full %s: %w", name, err)
	}
	pt.FullMillis = ms(start)
	pt.FullObjective = full.Objective
	pt.Ratio = pt.StreamObjective / pt.FullObjective

	start = time.Now()
	src.Reset()
	evStream, err := pipeline.Evaluate(src, res.Solve.Centroids, res.Lambda)
	if err != nil {
		return err
	}
	src.Reset()
	evFull, err := pipeline.Evaluate(src, full.Centroids, res.Lambda)
	if err != nil {
		return err
	}
	pt.EvalMillis = ms(start) / 2 // per pass
	pt.DeployedStream = evStream.Value.Objective
	pt.DeployedFull = evFull.Value.Objective

	s.Points = append(s.Points, pt)
	return nil
}

// Render prints the study.
func (s *StreamStudy) Render() string {
	tt := newTextTable(fmt.Sprintf("Summarize-then-solve vs full FairKM (coreset m=%d per stratum)", s.M))
	tt.row("dataset", "n", "k", "summary", "strata", "obj full", "obj stream", "ratio", "deploy full", "deploy stream", "full ms", "stream ms", "eval ms")
	tt.rule()
	for _, p := range s.Points {
		tt.row(p.Name, fmt.Sprintf("%d", p.N), fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%d", p.SummaryRows), fmt.Sprintf("%d", p.Groups),
			f2(p.FullObjective), f2(p.StreamObjective), f4(p.Ratio),
			f2(p.DeployedFull), f2(p.DeployedStream),
			f2(p.FullMillis), f2(p.StreamMillis), f2(p.EvalMillis))
	}
	return tt.String()
}
