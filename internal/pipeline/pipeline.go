// Package pipeline wires the streaming fair coreset
// (internal/coreset.Stream) into the weighted FairKM solver
// (internal/core.RunWeighted) as a summarize-then-solve pipeline:
//
//	chunked source ──► fair merge-and-reduce summary ──► weighted solve
//	        └────────────► second pass ──► full-data metrics
//
// The summarize stage holds O(G·(m·log n + block)) rows — G the number
// of realized sensitive-value combinations, m the per-group coreset
// size — independent of the stream length n, so a fixed-memory process
// can cluster unbounded inputs. The solve stage runs weighted FairKM
// over the ≤ G·m·log n summary rows at summary cost. Because the
// coreset preserves each group's total mass exactly and the weighted
// kernel treats masses as first-class (internal/core), the weighted
// objective on the summary approximates the full-data objective; the
// Evaluate second pass then reports exact full-data fairness and
// utility for the centroids the summary solve produced.
//
// FitSharded is the one fit driver. It runs one Summarizer per
// pre-split source — dataset.SplitCSV byte ranges for files,
// SliceShards row ranges for an in-memory dataset — and merges the
// per-shard summaries: each is a fair coreset, and their union — after
// a shard-order domain merge and an optional reduce pass — is again a
// fair coreset, so the solve stage is unchanged. The shard count is
// the number of sources. FitStream is FitSharded over one source, and
// Summarizer.Solve is the same merge-and-solve over its single
// summary. Results are bit-identical for every worker count at a fixed
// shard count; see DESIGN.md "Sharded ingestion".
//
// Min-max scaling is written once, here: ScanMinMax is the extra
// leading pass that measures per-column minima and ranges, and Scaled
// wraps any Source so its chunks arrive in the scaled space — for
// training and for re-evaluating a saved model over raw data alike.
//
// cmd/fairstream exposes the pipeline over CSV files;
// internal/experiments benchmarks it against full-data solves.
package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/coreset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// Source yields successive chunks of a row stream as small Datasets
// sharing one schema (same feature columns and sensitive attributes,
// in the same order). Next returns (nil, io.EOF) when exhausted.
// dataset.CSVStream implements Source for CSV files; SliceSource
// adapts an in-memory Dataset.
type Source interface {
	Next() (*dataset.Dataset, error)
}

// DefaultCoresetSize is Config.CoresetSize when unset.
const DefaultCoresetSize = 64

// DefaultMaxGroups caps the realized sensitive-value cross product;
// every group costs O(m·log n + block) retained rows, so an unbounded
// group count would defeat the memory bound.
const DefaultMaxGroups = 256

// Config parameterizes FitStream.
type Config struct {
	// K is the number of clusters; required.
	K int
	// Lambda is FairKM's fairness weight; AutoLambda selects the
	// λ = (n/K)² heuristic with n the number of streamed points (the
	// summary's total mass), matching what a full-data solve would use.
	Lambda     float64
	AutoLambda bool
	// CoresetSize m is the per-group coreset size of each merge-and-
	// reduce level; zero means DefaultCoresetSize. The summary holds at
	// most m·log₂(n/block) + block rows per realized group.
	CoresetSize int
	// BlockSize is the raw-point buffer per group before compression;
	// zero means 2·CoresetSize.
	BlockSize int
	// MaxGroups bounds the realized sensitive-value cross product
	// (zero means DefaultMaxGroups). Exceeding it is an error telling
	// the caller to stratify on fewer attributes.
	MaxGroups int
	// Seed drives both the coreset sampling and the solve.
	Seed int64
	// MaxIter, Tol, Parallelism and Weights pass through to the
	// weighted FairKM solve.
	MaxIter     int
	Tol         float64
	Parallelism int
	Weights     map[string]float64
	// Observer, when non-nil, receives the summary solve's
	// per-iteration statistics (trace output, telemetry run journals).
	Observer engine.Observer
}

// Result is a completed summarize-then-solve run.
type Result struct {
	// Solve is the weighted FairKM result over the summary rows;
	// Solve.Centroids are the deployable prototypes.
	Solve *core.Result
	// Summary is the weighted summary dataset the solve ran on, with
	// SummaryWeights its per-row masses (summing to N).
	Summary        *dataset.Dataset
	SummaryWeights []float64
	// N is the number of points streamed.
	N int
	// Groups is the number of realized sensitive-value combinations.
	Groups int
	// Lambda is the λ actually used.
	Lambda float64
	// Shards is how many summarizers fed the solve (1 for FitStream
	// and Summarizer.Solve; FitSharded records its source count).
	Shards int
	// Reduced reports whether the sharded merge re-sampled the union
	// down to ShardedConfig.MergeBudget before solving.
	Reduced bool
}

// FitStream consumes the source to completion, maintaining a fair
// merge-and-reduce coreset stratified on the cross product of the
// categorical sensitive attributes, then solves weighted FairKM on the
// summary. Numeric sensitive attributes are not streamable (their
// deviation needs exact masses per cluster, which per-group coresets
// do not stratify) and are rejected. It is FitSharded over one source.
func FitStream(src Source, cfg Config) (*Result, error) {
	return FitSharded([]Source{src}, ShardedConfig{Config: cfg})
}

// Summarizer is the incremental form of FitStream for callers that
// drive their own ingest loop (e.g. a server consuming a feed): Add
// chunks as they arrive, Solve whenever a clustering is needed.
type Summarizer struct {
	cfg   Config
	m     int
	block int

	stream *coreset.Stream

	// Schema, fixed by the first chunk.
	featureNames []string
	dim          int
	attrNames    []string

	// Per attribute: global value→code mapping (first appearance).
	domains []*dataset.DomainIndex

	// Realized cross-product groups: the varint encoding of the global
	// code tuple → dense id, and per id the global code of each
	// attribute. Keys are built in a reusable buffer and looked up via
	// the alloc-free string(byte-slice) map form, so the per-row ingest
	// path allocates only when a NEW combination appears.
	groupIDs   map[string]int
	groupCodes [][]int
	keyBuf     []byte

	n int
}

// Validate checks the settings that can be checked before any row is
// read: K, and the solve's λ and Tol, which must be finite and
// non-negative. The solve re-checks them along with the rest of its
// configuration.
func (cfg Config) Validate() error {
	if cfg.K < 1 {
		return fmt.Errorf("pipeline: K=%d must be positive", cfg.K)
	}
	if cfg.Lambda < 0 || math.IsNaN(cfg.Lambda) || math.IsInf(cfg.Lambda, 0) {
		return fmt.Errorf("pipeline: lambda %v must be finite and non-negative", cfg.Lambda)
	}
	if cfg.Tol < 0 || math.IsNaN(cfg.Tol) || math.IsInf(cfg.Tol, 0) {
		return fmt.Errorf("pipeline: tolerance %v must be finite and non-negative", cfg.Tol)
	}
	return nil
}

// NewSummarizer validates cfg and prepares an empty summary.
func NewSummarizer(cfg Config) (*Summarizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := cfg.CoresetSize
	if m <= 0 {
		m = DefaultCoresetSize
	}
	block := cfg.BlockSize
	if block <= 0 {
		block = 2 * m
	}
	if block < m {
		return nil, fmt.Errorf("pipeline: BlockSize=%d must be at least CoresetSize=%d", block, m)
	}
	stream, err := coreset.NewStream(m, block, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	return &Summarizer{
		cfg:      cfg,
		m:        m,
		block:    block,
		stream:   stream,
		groupIDs: map[string]int{},
	}, nil
}

// Add consumes one chunk. The first chunk fixes the schema; later
// chunks must present the same feature columns and sensitive
// attributes in the same order (value domains may keep growing).
func (s *Summarizer) Add(chunk *dataset.Dataset) error {
	if err := chunk.Validate(); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if s.domains == nil {
		if len(chunk.Sensitive) == 0 {
			return errors.New("pipeline: stream has no sensitive attributes")
		}
		s.featureNames = chunk.FeatureNames
		s.dim = chunk.Dim()
		for _, attr := range chunk.Sensitive {
			if attr.Kind != dataset.Categorical {
				return fmt.Errorf("pipeline: numeric sensitive attribute %q is not streamable; drop it or solve in memory", attr.Name)
			}
			s.attrNames = append(s.attrNames, attr.Name)
			s.domains = append(s.domains, dataset.NewDomainIndex())
		}
	}
	if chunk.Dim() != s.dim {
		return fmt.Errorf("pipeline: chunk has %d features, want %d", chunk.Dim(), s.dim)
	}
	if len(chunk.Sensitive) != len(s.attrNames) {
		return fmt.Errorf("pipeline: chunk has %d sensitive attributes, want %d", len(chunk.Sensitive), len(s.attrNames))
	}
	for ai, attr := range chunk.Sensitive {
		if attr.Name != s.attrNames[ai] || attr.Kind != dataset.Categorical {
			return fmt.Errorf("pipeline: chunk attribute %d is %s/%s, want categorical %s", ai, attr.Name, attr.Kind, s.attrNames[ai])
		}
	}
	maxGroups := s.cfg.MaxGroups
	if maxGroups <= 0 {
		maxGroups = DefaultMaxGroups
	}
	codes := make([]int, len(s.attrNames))
	for i := 0; i < chunk.N(); i++ {
		s.keyBuf = s.keyBuf[:0]
		for ai, attr := range chunk.Sensitive {
			codes[ai] = s.domains[ai].Code(attr.Values[attr.Codes[i]])
			s.keyBuf = binary.AppendUvarint(s.keyBuf, uint64(codes[ai]))
		}
		gid, ok := s.groupIDs[string(s.keyBuf)]
		if !ok {
			gid = len(s.groupCodes)
			if gid >= maxGroups {
				return fmt.Errorf("pipeline: more than %d realized sensitive-value combinations; stratify on fewer attributes or raise MaxGroups", maxGroups)
			}
			s.groupIDs[string(s.keyBuf)] = gid
			s.groupCodes = append(s.groupCodes, append([]int(nil), codes...))
		}
		if err := s.stream.Add(chunk.Features[i], gid); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
		s.n++
	}
	return nil
}

// N returns how many points have been summarized.
func (s *Summarizer) N() int { return s.n }

// Summary materializes the current weighted summary as a Dataset plus
// per-row masses, decoding each retained row's group back into
// per-attribute sensitive codes over the globally accumulated domains.
func (s *Summarizer) Summary() (*dataset.Dataset, []float64, error) {
	if s.n == 0 {
		return nil, nil, errors.New("pipeline: empty stream")
	}
	features, weights, groups := s.stream.Summary()
	ds := &dataset.Dataset{
		FeatureNames: s.featureNames,
		Features:     features,
	}
	for ai, name := range s.attrNames {
		codes := make([]int, len(groups))
		for pos, gid := range groups {
			codes[pos] = s.groupCodes[gid][ai]
		}
		ds.Sensitive = append(ds.Sensitive, &dataset.SensitiveAttr{
			Name:   name,
			Kind:   dataset.Categorical,
			Values: append([]string(nil), s.domains[ai].Values()...),
			Codes:  codes,
		})
	}
	if err := ds.Validate(); err != nil {
		return nil, nil, fmt.Errorf("pipeline: summary: %w", err)
	}
	return ds, weights, nil
}

// Solve materializes the summary and runs weighted FairKM on it: the
// sharded merge-and-solve with this one summarizer.
func (s *Summarizer) Solve() (*Result, error) {
	return solveSharded([]*Summarizer{s}, ShardedConfig{Config: s.cfg})
}

// Evaluation carries full-data metrics of a fixed set of centroids,
// computed in one streaming pass with O(k·(dim + Σ|Values|)) memory.
type Evaluation struct {
	// Value decomposes the full-data FairKM objective of the nearest-
	// centroid assignment, with unit attribute weights.
	Value core.ObjectiveValue
	// Fairness holds one AE/AW/ME/MW report per categorical sensitive
	// attribute plus the "mean" aggregate, as metrics.FairnessAll.
	Fairness []metrics.FairnessReport
	// Sizes are full-data cluster cardinalities.
	Sizes []int
	// N is the number of evaluated rows.
	N int
}

// Evaluate streams the source once more, assigns every row to its
// nearest centroid and accumulates the exact full-data objective and
// fairness measures — the second pass of the pipeline. It never holds
// more than one chunk plus O(k·(dim + Σ|Values|)) aggregates.
func Evaluate(src Source, centroids [][]float64, lambda float64) (*Evaluation, error) {
	if len(centroids) == 0 {
		return nil, errors.New("pipeline: no centroids")
	}
	k := len(centroids)
	dim := len(centroids[0])

	sizes := make([]int, k)
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	ssqs := make([]float64, k)

	// Aggregates index values by the source's codes, which every
	// Source keeps stable across chunks (CSVStream assigns codes by
	// first appearance; SliceSource shares the materialized domain).
	// Keeping the source's value ORDER matters: the Wasserstein
	// measures are defined over the ordered domain, so re-keying would
	// silently permute them.
	type catAgg struct {
		name    string
		values  []string    // longest Values slice seen
		cluster [][]float64 // [cluster][value] counts, value slices grow
		total   []float64   // dataset value counts
	}
	var cats []*catAgg
	var n int

	for {
		chunk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if chunk.Dim() != dim {
			return nil, fmt.Errorf("pipeline: chunk has %d features, centroids have %d", chunk.Dim(), dim)
		}
		if cats == nil {
			for _, attr := range chunk.Sensitive {
				if attr.Kind != dataset.Categorical {
					return nil, fmt.Errorf("pipeline: numeric sensitive attribute %q is not streamable", attr.Name)
				}
				ca := &catAgg{name: attr.Name, cluster: make([][]float64, k)}
				cats = append(cats, ca)
			}
		}
		if len(chunk.Sensitive) != len(cats) {
			return nil, fmt.Errorf("pipeline: chunk has %d sensitive attributes, want %d", len(chunk.Sensitive), len(cats))
		}
		for ai, attr := range chunk.Sensitive {
			ca := cats[ai]
			if attr.Name != ca.name {
				return nil, fmt.Errorf("pipeline: chunk attribute %d is %q, want %q", ai, attr.Name, ca.name)
			}
			if len(attr.Values) > len(ca.values) {
				ca.values = append([]string(nil), attr.Values...)
			}
		}
		for i := 0; i < chunk.N(); i++ {
			x := chunk.Features[i]
			best, _ := stats.NearestCentroidScan(x, centroids)
			sizes[best]++
			stats.AddTo(sums[best], x)
			ssqs[best] += stats.Dot(x, x)
			n++
			for ai, attr := range chunk.Sensitive {
				ca := cats[ai]
				code := attr.Codes[i]
				for code >= len(ca.total) {
					ca.total = append(ca.total, 0)
				}
				ca.total[code]++
				cc := ca.cluster[best]
				for code >= len(cc) {
					cc = append(cc, 0)
				}
				cc[code]++
				ca.cluster[best] = cc
			}
		}
	}
	if n == 0 {
		return nil, errors.New("pipeline: empty stream")
	}

	// K-Means term from sufficient statistics: Σ_c (Σ‖x‖² − ‖Σx‖²/|c|).
	km := 0.0
	for c := 0; c < k; c++ {
		if sizes[c] == 0 {
			continue
		}
		s := ssqs[c] - stats.Dot(sums[c], sums[c])/float64(sizes[c])
		if s < 0 {
			s = 0
		}
		km += s
	}

	// Fairness term (Eq. 7, paper defaults) and per-attribute reports.
	fair := 0.0
	var reports []metrics.FairnessReport
	szf := make([]float64, k)
	for c, sz := range sizes {
		szf[c] = float64(sz)
	}
	for _, ca := range cats {
		// Declared-but-unobserved domain values still count towards the
		// Eq. 4 normalization, exactly as in the in-memory path.
		nvals := len(ca.values)
		if len(ca.total) > nvals {
			nvals = len(ca.total)
		}
		frX := make([]float64, nvals)
		for v, cnt := range ca.total {
			frX[v] = cnt / float64(n)
		}
		dists := make([][]float64, k)
		for c := 0; c < k; c++ {
			dist := make([]float64, nvals)
			if sizes[c] > 0 {
				frac := float64(sizes[c]) / float64(n)
				sum := 0.0
				for v := range dist {
					cc := 0.0
					if v < len(ca.cluster[c]) {
						cc = ca.cluster[c][v]
					}
					dist[v] = cc / float64(sizes[c])
					d := dist[v] - frX[v]
					sum += d * d
				}
				fair += frac * frac * sum / float64(nvals)
			}
			dists[c] = dist
		}
		reports = append(reports, metrics.FairnessFromDistributions(ca.name, frX, szf, dists))
	}
	if len(reports) > 0 {
		reports = append(reports, metrics.MeanReport(reports))
	}

	return &Evaluation{
		Value: core.ObjectiveValue{
			KMeansTerm:   km,
			FairnessTerm: fair,
			Objective:    km + lambda*fair,
			Lambda:       lambda,
		},
		Fairness: reports,
		Sizes:    sizes,
		N:        n,
	}, nil
}

// SliceSource adapts an in-memory Dataset to the Source interface,
// yielding fixed-size chunks — the harness tests and experiments use
// it to replay a materialized dataset as a stream.
type SliceSource struct {
	ds    *dataset.Dataset
	chunk int
	pos   int
}

// NewSliceSource returns a Source yielding ds in chunks of chunk rows
// (chunk <= 0 means 1024).
func NewSliceSource(ds *dataset.Dataset, chunk int) *SliceSource {
	if chunk <= 0 {
		chunk = 1024
	}
	return &SliceSource{ds: ds, chunk: chunk}
}

// Next implements Source.
func (s *SliceSource) Next() (*dataset.Dataset, error) {
	if s.pos >= s.ds.N() {
		return nil, io.EOF
	}
	end := s.pos + s.chunk
	if end > s.ds.N() {
		end = s.ds.N()
	}
	idx := make([]int, end-s.pos)
	for i := range idx {
		idx[i] = s.pos + i
	}
	s.pos = end
	return s.ds.Subset(idx), nil
}

// Reset rewinds the source for a second pass.
func (s *SliceSource) Reset() { s.pos = 0 }

// SliceShards splits ds into shards ≥ 1 contiguous row ranges of
// near-equal size, in row order, each a SliceSource of chunk-row
// chunks: the in-memory twin of dataset.SplitCSV's byte ranges, ready
// for FitSharded. As with SplitCSV, a range is empty only when ds has
// fewer rows than shards.
func SliceShards(ds *dataset.Dataset, shards, chunk int) []Source {
	n := ds.N()
	srcs := make([]Source, shards)
	for i := range srcs {
		lo, hi := i*n/shards, (i+1)*n/shards
		idx := make([]int, hi-lo)
		for j := range idx {
			idx[j] = lo + j
		}
		srcs[i] = NewSliceSource(ds.Subset(idx), chunk)
	}
	return srcs
}
