// Package fairclust is the public API of this repository: a Go
// implementation of FairKM — "Fairness in Clustering with Multiple
// Sensitive Attributes" (Abraham, Deepak P, Sundaram; EDBT 2020) — with
// its baselines, datasets and the complete evaluation harness.
//
// # Quick start
//
//	b := fairclust.NewBuilder("income", "tenure")
//	b.AddCategoricalSensitive("gender")
//	b.Row([]float64{52, 3}, []string{"f"}, nil)
//	// ... more rows ...
//	ds, err := b.Build()
//	res, err := fairclust.Run(ds, fairclust.Config{K: 3, AutoLambda: true})
//	// res.Assign[i] is row i's cluster.
//
// The λ parameter trades cluster coherence (over the non-sensitive
// features) against representational fairness (each cluster's
// distribution over every sensitive attribute approximating the
// dataset's). AutoLambda applies the paper's λ=(n/k)² heuristic.
//
// # Weighted points and streaming
//
// RunWeighted solves FairKM over weighted rows (row i stands for w_i
// points); unit weights reproduce Run bit-for-bit. FitStream feeds a
// chunked row source through a fair merge-and-reduce coreset and
// solves weighted FairKM on the O(m·log n) summary, so unbounded
// inputs cluster on fixed memory:
//
//	src, err := fairclust.NewCSVStream(f, spec, 4096)
//	res, err := fairclust.FitStream(src, fairclust.StreamConfig{K: 5, AutoLambda: true})
//	// res.Solve.Centroids deploys via res.Solve.Predict; re-stream
//	// through fairclust.EvaluateStream for exact full-data metrics.
//
// For data-parallel ingestion, FitSharded runs one summarizer per
// pre-split source — SplitCSV shards a CSV file on row boundaries for
// true parallel reads. Per-shard coresets merge into one weighted
// summary (a union of fair coresets is a fair coreset), and results
// are bit-identical for every worker count.
//
// See cmd/fairstream for the end-to-end CLI.
//
// # Model artifacts and serving
//
// A trained clustering persists as a versioned artifact that loads
// back bit-identically and serves concurrent assignment traffic:
//
//	m, err := fairclust.NewModel(ds, nil, res, fairclust.ModelProvenance{Tool: "myapp"})
//	err = fairclust.SaveModel("prod.model.json", m)
//	// ... later, in the serving process ...
//	m, err = fairclust.LoadModel("prod.model.json")
//	a, err := fairclust.NewAssigner(m, fairclust.AssignerOptions{})
//	clusters, dists, err := a.AssignBatch(rows, nil)
//
// Results are deterministic for every worker count and batch size.
// cmd/fairserved exposes the same stack over HTTP with atomic
// hot-swap, latency quantiles and fairness-drift reports.
//
// # Package map
//
//   - internal/engine — the shared descent engine: initializers, sweep
//     strategies (sequential, frozen-parallel, Lloyd),
//     convergence policies (zero-moves, Tol, MaxIter, wall-clock
//     budget) and the per-iteration Observer hook
//   - internal/core — the FairKM objective on the engine (re-exported
//     here), over unit-weight or weighted rows
//   - internal/coreset — fair (group-stratified) lightweight coresets
//     and the streaming merge-and-reduce summary
//   - internal/pipeline — the summarize-then-solve pipeline gluing
//     coreset, weighted solver and second-pass metrics together, with
//     sharded data-parallel ingestion and a deterministic merge
//   - internal/model — the persistent model artifact (deterministic
//     JSON codec, Save/Load, domain snapshots, provenance)
//   - internal/serve — the serving subsystem: micro-batching assigner
//     pool, hot-swap registry, latency and fairness-drift tracking
//   - internal/kmeans — classical K-Means on the engine (the S-blind
//     baseline), with a weighted variant for coresets
//   - internal/zgya — the ZGYA fair-clustering baseline [Ziko et al.
//     2019] on the engine
//   - internal/fairlet, internal/bera — further baselines from the
//     fair-clustering literature
//   - internal/metrics — the paper's quality and fairness measures
//   - internal/data/adult, internal/data/kinematics — synthetic
//     stand-ins for the paper's evaluation datasets
//   - internal/experiments — regenerates every table and figure
//   - internal/goldencase — pinned solver trajectories guarding
//     refactors of the engine and objectives
//
// See README.md, DESIGN.md and EXPERIMENTS.md for the full tour.
package fairclust

import (
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// Dataset is a clustering input: numeric non-sensitive features plus
// categorical/numeric sensitive attributes. See the builder helpers or
// ReadCSV to construct one.
type Dataset = dataset.Dataset

// SensitiveAttr is one sensitive column of a Dataset.
type SensitiveAttr = dataset.SensitiveAttr

// Builder accumulates rows and produces a validated Dataset.
type Builder = dataset.Builder

// CSVSpec tells ReadCSV how to map CSV columns onto features and
// sensitive attributes.
type CSVSpec = dataset.CSVSpec

// Config parameterizes a FairKM run; the zero value plus a K is valid
// (λ=0 behaves like K-Means).
type Config = core.Config

// Result is a completed FairKM clustering.
type Result = core.Result

// FairnessReport carries the AE/AW/ME/MW fairness measures for one
// sensitive attribute.
type FairnessReport = metrics.FairnessReport

// KMeansConfig parameterizes the S-blind K-Means baseline.
type KMeansConfig = kmeans.Config

// KMeansResult is a completed K-Means clustering.
type KMeansResult = kmeans.Result

// Observer is the engine's per-iteration hook: set Config.Observer (on
// any solver config) to receive an IterEvent after every sweep —
// progress callbacks, trace logging, convergence studies.
type Observer = engine.Observer

// IterEvent is the per-iteration record passed to an Observer.
type IterEvent = engine.IterEvent

// InitMethod selects FairKM's initial clustering (Config.Init):
// KMeansPlusPlus (the default), the paper's RandomPartition with
// empty-cluster repair, or RandomPoints. Run rejects any other value.
// The K-Means and ZGYA baselines always start from k-means++.
type InitMethod = engine.InitMethod

// The initializers Config.Init accepts.
const (
	// KMeansPlusPlus seeds k-means++ centroids and assigns each row to
	// its nearest one; it is the zero value.
	KMeansPlusPlus = engine.KMeansPlusPlus
	// RandomPartition assigns every row to a uniformly random cluster,
	// then repairs empty clusters: Algorithm 1's start.
	RandomPartition = engine.RandomPartition
	// RandomPoints picks k distinct rows as centroids and assigns each
	// row to its nearest one.
	RandomPoints = engine.RandomPoints
)

// NewBuilder creates a Builder for the given feature column names.
func NewBuilder(featureNames ...string) *Builder {
	return dataset.NewBuilder(featureNames...)
}

// ReadCSV parses a headed CSV stream into a Dataset according to spec.
func ReadCSV(r io.Reader, spec CSVSpec) (*Dataset, error) {
	return dataset.ReadCSV(r, spec)
}

// WriteCSV serializes a Dataset as headed CSV.
func WriteCSV(w io.Writer, ds *Dataset) error {
	return dataset.WriteCSV(w, ds)
}

// Run executes FairKM on the dataset.
func Run(ds *Dataset, cfg Config) (*Result, error) {
	return core.Run(ds, cfg)
}

// RunWeighted executes FairKM over weighted rows: row i stands for
// weights[i] original points, so a coreset summary solves at summary
// cost while approximating the full data's objective. Unit weights
// reproduce Run bit-for-bit.
func RunWeighted(ds *Dataset, weights []float64, cfg Config) (*Result, error) {
	return core.RunWeighted(ds, weights, cfg)
}

// WeightedObjective evaluates the weighted FairKM objective for an
// arbitrary assignment from scratch (weights == nil means unit
// weights, matching Objective).
func WeightedObjective(ds *Dataset, weights []float64, assign []int, k int, lambda float64) (core.ObjectiveValue, error) {
	return core.EvaluateObjectiveWeighted(ds, weights, assign, k, lambda, nil)
}

// StreamSource yields successive chunks of a row stream; CSVStream and
// SliceSource implement it.
type StreamSource = pipeline.Source

// StreamConfig parameterizes FitStream.
type StreamConfig = pipeline.Config

// StreamResult is a completed summarize-then-solve run.
type StreamResult = pipeline.Result

// StreamEvaluation carries exact full-data metrics for a set of
// centroids, computed by EvaluateStream in one fixed-memory pass.
type StreamEvaluation = pipeline.Evaluation

// CSVStream reads a headed CSV source in bounded chunks; it implements
// StreamSource.
type CSVStream = dataset.CSVStream

// NewCSVStream opens a chunked CSV reader (chunkSize <= 0 means 4096).
func NewCSVStream(r io.Reader, spec CSVSpec, chunkSize int) (*CSVStream, error) {
	return dataset.NewCSVStream(r, spec, chunkSize)
}

// NewSliceSource adapts an in-memory Dataset to StreamSource, yielding
// fixed-size chunks.
func NewSliceSource(ds *Dataset, chunk int) StreamSource {
	return pipeline.NewSliceSource(ds, chunk)
}

// FitStream consumes the source to completion through a fair
// merge-and-reduce coreset (one stratum per combination of categorical
// sensitive values, O(m·log n) rows per stratum) and solves weighted
// FairKM on the summary. Memory is independent of the stream length.
func FitStream(src StreamSource, cfg StreamConfig) (*StreamResult, error) {
	return pipeline.FitStream(src, cfg)
}

// EvaluateStream re-streams the source, assigns every row to its
// nearest centroid, and returns the exact full-data objective and
// fairness measures — the pipeline's second pass.
func EvaluateStream(src StreamSource, centroids [][]float64, lambda float64) (*StreamEvaluation, error) {
	return pipeline.Evaluate(src, centroids, lambda)
}

// ShardedStreamConfig parameterizes the sharded summarize-then-solve
// entry points: the embedded StreamConfig drives each shard and the
// final solve; Workers and MergeBudget control the fan-out, and the
// shard count is the number of sources.
type ShardedStreamConfig = pipeline.ShardedConfig

// CSVShards is a CSV file split on row boundaries into independently
// readable byte ranges; build one with SplitCSV and Open each shard as
// its own chunked StreamSource.
type CSVShards = dataset.CSVShards

// SplitCSV splits the headed CSV file at path into shards byte ranges
// aligned to row boundaries, enabling parallel ingestion of one file.
func SplitCSV(path string, shards int) (*CSVShards, error) {
	return dataset.SplitCSV(path, shards)
}

// FitSharded runs one coreset summarizer per source in parallel,
// merges the per-shard summaries (weighted union with cross-shard
// domain reconciliation) and solves weighted FairKM on the result.
// Results are bit-identical for every Workers value; a single source
// at MergeBudget 0 reproduces FitStream bit-for-bit.
func FitSharded(sources []StreamSource, cfg ShardedStreamConfig) (*StreamResult, error) {
	return pipeline.FitSharded(sources, cfg)
}

// EvaluateStreamModel is EvaluateStream for a loaded model artifact: it
// scores the model's centroids at its trained λ, applying the
// artifact's feature scaling (if any) to every chunk first — so the raw
// training file can be re-evaluated against a saved model directly.
func EvaluateStreamModel(src StreamSource, m *Model) (*StreamEvaluation, error) {
	return pipeline.Evaluate(pipeline.Scaled(src, m.Scaling), m.Centroids, m.Lambda)
}

// Model is a persistent, self-describing trained-clustering artifact:
// centroids, λ, per-cluster sensitive-value distributions, domain
// snapshots, optional feature scaling and provenance. Save it after
// training, serve it with NewAssigner or cmd/fairserved.
type Model = model.Model

// ModelProvenance records where a model artifact came from.
type ModelProvenance = model.Provenance

// ModelScaling records a feature transform (min-max) applied before
// training, carried by the artifact so serving can map raw inputs into
// the trained space.
type ModelScaling = model.Scaling

// Assigner answers single and batch nearest-centroid queries for one
// model through a micro-batching worker pool, tracking latency and
// fairness drift. Results are deterministic for every pool
// configuration.
type Assigner = serve.Assigner

// AssignerOptions configures the Assigner's worker pool and, when
// MaxConcurrent is set, its admission control (bounded queue +
// wait-budget load shedding).
type AssignerOptions = serve.Options

// ModelRegistry is a named set of served models with atomic hot-swap.
type ModelRegistry = serve.Registry

// IsShedError reports whether an assignment error is an
// admission-control rejection: the server is over capacity and the
// caller should back off and retry (the server itself is healthy).
func IsShedError(err error) bool { return serve.IsShed(err) }

// NewModel builds a model artifact from a completed solve: the dataset
// (or weighted summary) it ran on, per-row weights (nil for unit
// weights) and the result.
func NewModel(ds *Dataset, weights []float64, res *Result, prov ModelProvenance) (*Model, error) {
	return model.New(ds, weights, res, prov)
}

// SaveModel writes a model artifact to path atomically.
func SaveModel(path string, m *Model) error { return model.Save(path, m) }

// LoadModel reads and validates the model artifact at path. A loaded
// model reproduces the saved model's assignments bit-for-bit.
func LoadModel(path string) (*Model, error) { return model.Load(path) }

// NewAssigner starts a serving assigner for a model.
func NewAssigner(m *Model, opts AssignerOptions) (*Assigner, error) {
	return serve.NewAssigner(m, opts)
}

// NewModelRegistry returns an empty serving registry; opts configure
// every Assigner it constructs.
func NewModelRegistry(opts AssignerOptions) *ModelRegistry { return serve.NewRegistry(opts) }

// DefaultLambda returns the paper's λ = (n/k)² heuristic (Section 5.4).
func DefaultLambda(n, k int) float64 { return core.DefaultLambda(n, k) }

// Objective evaluates the FairKM objective for an arbitrary assignment
// from scratch (useful for scoring clusterings produced elsewhere).
func Objective(ds *Dataset, assign []int, k int, lambda float64) (core.ObjectiveValue, error) {
	return core.EvaluateObjective(ds, assign, k, lambda, nil)
}

// KMeans runs the S-blind K-Means baseline on the dataset's features.
func KMeans(ds *Dataset, cfg KMeansConfig) (*KMeansResult, error) {
	return kmeans.Run(ds.Features, cfg)
}

// Fairness computes the paper's fairness measures (AE, AW, ME, MW) for
// every categorical sensitive attribute of ds under the given
// assignment, appending a "mean" report across attributes.
func Fairness(ds *Dataset, assign []int, k int) []FairnessReport {
	return metrics.FairnessAll(ds, assign, k)
}

// ClusteringObjective returns the K-Means SSE of an assignment over the
// dataset's features (the paper's CO measure).
func ClusteringObjective(ds *Dataset, assign []int, k int) float64 {
	return metrics.CO(ds.Features, assign, k)
}

// Silhouette returns the (sampled) silhouette score of an assignment
// (the paper's SH measure). sample bounds the points averaged; pass
// ds.N() or more for the exact score.
func Silhouette(ds *Dataset, assign []int, k, sample int, seed int64) float64 {
	return metrics.SilhouetteSampled(ds.Features, assign, k, sample, seed)
}
