package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/coreset"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// ShardedConfig parameterizes FitSharded: the embedded Config drives
// each per-shard Summarizer and the final solve. The shard count S is
// the number of sources FitSharded is given.
type ShardedConfig struct {
	Config

	// Workers bounds how many shards ingest concurrently: 0 means one
	// worker per shard, -1 means GOMAXPROCS, n means n workers. Shards
	// are statically owned by workers (shard i belongs to worker i mod
	// W), so results are bit-identical for every worker count.
	Workers int

	// MergeBudget, when positive, caps the merged summary's row count:
	// if the union of per-shard summaries exceeds it, one reduce pass
	// through coreset.LightweightWeighted re-samples each sensitive
	// group proportionally (preserving group masses exactly). Zero
	// means never reduce — the union solves as-is, which is what
	// FitStream and Summarizer.Solve ask for.
	MergeBudget int
}

// shardSeed derives shard i's RNG stream from the base seed: disjoint
// golden-ratio increments (the splitmix64 stream constant), with shard
// 0 keeping the base seed so a single shard is seeded by Config.Seed.
func shardSeed(seed int64, i int) int64 {
	return seed + int64(i)*-0x61c8864680b583eb // 0x9e3779b97f4a7c15 as int64
}

// workerCount resolves cfg.Workers against S shards.
func (cfg ShardedConfig) workerCount(shards int) int {
	w := cfg.Workers
	switch {
	case w == 0:
		w = shards
	case w < 0:
		w = runtime.GOMAXPROCS(0)
	}
	if w > shards {
		w = shards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// FitSharded is the pipeline's one fit driver. It runs one Summarizer
// per source in parallel — each with its own deterministically derived
// RNG stream — merges the per-shard summaries (weighted union with
// cross-shard domain reconciliation, optionally reduced to MergeBudget
// rows) and solves weighted FairKM on the result. Sources must share
// one schema; dataset.SplitCSV produces such sources from a single CSV
// file with true parallel byte-range reads. FitStream is this function
// over one source.
//
// The result is bit-identical for every Workers value at a fixed shard
// count.
func FitSharded(sources []Source, cfg ShardedConfig) (*Result, error) {
	s := len(sources)
	if s == 0 {
		return nil, errors.New("pipeline: no shard sources")
	}
	sums, err := newShardSummarizers(s, cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.workerCount(s)
	errs := make([]error, s)
	var wg sync.WaitGroup
	for worker := 0; worker < w; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := worker; i < s; i += w {
				errs[i] = drainInto(sums[i], sources[i])
			}
		}(worker)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return solveSharded(sums, cfg)
}

// newShardSummarizers builds S summarizers with disjoint seed streams.
func newShardSummarizers(s int, cfg ShardedConfig) ([]*Summarizer, error) {
	sums := make([]*Summarizer, s)
	for i := range sums {
		c := cfg.Config
		c.Seed = shardSeed(cfg.Seed, i)
		sum, err := NewSummarizer(c)
		if err != nil {
			return nil, err
		}
		sums[i] = sum
	}
	return sums, nil
}

// drainInto feeds one source to completion into one summarizer.
func drainInto(sum *Summarizer, src Source) error {
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := sum.Add(chunk); err != nil {
			return err
		}
	}
}

// solveSharded merges the shard summaries and runs weighted FairKM on
// the merged summary. It is the one place the summary solve's
// core.Config is built, for every fit.
func solveSharded(sums []*Summarizer, cfg ShardedConfig) (*Result, error) {
	summary, weights, n, groups, reduced, err := mergeSummaries(sums, cfg)
	if err != nil {
		return nil, err
	}
	if summary.N() < cfg.K {
		return nil, fmt.Errorf("pipeline: summary has %d rows for K=%d; raise CoresetSize or stream more data", summary.N(), cfg.K)
	}
	solve, err := core.RunWeighted(summary, weights, core.Config{
		K:           cfg.K,
		Lambda:      cfg.Lambda,
		AutoLambda:  cfg.AutoLambda,
		Seed:        cfg.Seed,
		MaxIter:     cfg.MaxIter,
		Tol:         cfg.Tol,
		Parallelism: cfg.Parallelism,
		Weights:     cfg.Weights,
		Observer:    cfg.Observer,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Solve:          solve,
		Summary:        summary,
		SummaryWeights: weights,
		N:              n,
		Groups:         groups,
		Lambda:         solve.Lambda,
		Shards:         len(sums),
		Reduced:        reduced,
	}, nil
}

// mergeSummaries takes the weighted union of the per-shard summaries.
// Cross-shard categorical codes are reconciled through a merged
// dataset.DomainIndex built by walking the shards in shard order — the
// merged code assignment depends only on the shard split, never on
// worker scheduling — and each shard's rows are remapped onto it. When
// cfg.MergeBudget > 0 and the union exceeds it, one reduce pass through
// coreset.LightweightWeighted re-samples every sensitive group down
// proportionally, preserving each group's total mass exactly (the
// Schmidt et al. composition: a union of fair coresets is a fair
// coreset, and a coreset of a coreset remains one).
func mergeSummaries(sums []*Summarizer, cfg ShardedConfig) (*dataset.Dataset, []float64, int, int, bool, error) {
	// Shards that saw no rows contribute nothing (a byte-range split of
	// a small file can leave shards empty); schema comes from the first
	// non-empty shard.
	var live []*Summarizer
	n := 0
	for _, s := range sums {
		if s.n > 0 {
			live = append(live, s)
			n += s.n
		}
	}
	if len(live) == 0 {
		return nil, nil, 0, 0, false, errors.New("pipeline: empty stream")
	}
	first := live[0]
	for _, s := range live[1:] {
		if s.dim != first.dim {
			return nil, nil, 0, 0, false, fmt.Errorf("pipeline: shard schemas disagree: %d features vs %d", s.dim, first.dim)
		}
		if len(s.attrNames) != len(first.attrNames) {
			return nil, nil, 0, 0, false, fmt.Errorf("pipeline: shard schemas disagree: %d sensitive attributes vs %d", len(s.attrNames), len(first.attrNames))
		}
		for ai, name := range s.attrNames {
			if name != first.attrNames[ai] {
				return nil, nil, 0, 0, false, fmt.Errorf("pipeline: shard schemas disagree: attribute %d is %q vs %q", ai, name, first.attrNames[ai])
			}
		}
	}

	// Merged domains: shard order fixes the merged code of every value,
	// regardless of which shard saw it first at runtime.
	nattrs := len(first.attrNames)
	merged := make([]*dataset.DomainIndex, nattrs)
	for ai := range merged {
		merged[ai] = dataset.NewDomainIndex()
		for _, s := range live {
			for _, v := range s.domains[ai].Values() {
				merged[ai].Code(v)
			}
		}
	}

	// Weighted union, remapped shard-local → merged codes.
	var features [][]float64
	var weights []float64
	codes := make([][]int, nattrs)
	for _, s := range live {
		ds, w, err := s.Summary()
		if err != nil {
			return nil, nil, 0, 0, false, err
		}
		features = append(features, ds.Features...)
		weights = append(weights, w...)
		for ai := range codes {
			attr := ds.Sensitive[ai]
			remap := make([]int, len(attr.Values))
			for c, v := range attr.Values {
				mc, ok := merged[ai].Lookup(v)
				if !ok {
					return nil, nil, 0, 0, false, fmt.Errorf("pipeline: internal error: value %q missing from merged domain", v)
				}
				remap[c] = mc
			}
			for _, c := range attr.Codes {
				codes[ai] = append(codes[ai], remap[c])
			}
		}
	}

	// Realized merged groups, keyed by the merged code tuple; rowGroup
	// drives the optional per-group reduce.
	groupIDs := map[string]int{}
	rowGroup := make([]int, len(features))
	var keyBuf []byte
	for i := range features {
		keyBuf = keyBuf[:0]
		for ai := range codes {
			keyBuf = binary.AppendUvarint(keyBuf, uint64(codes[ai][i]))
		}
		gid, ok := groupIDs[string(keyBuf)]
		if !ok {
			gid = len(groupIDs)
			groupIDs[string(keyBuf)] = gid
		}
		rowGroup[i] = gid
	}
	groups := len(groupIDs)

	reduced := false
	if cfg.MergeBudget > 0 && len(features) > cfg.MergeBudget {
		cw, err := coreset.ReduceGroups(features, weights, rowGroup, cfg.MergeBudget, stats.NewRNG(cfg.Seed).Fork())
		if err != nil {
			return nil, nil, 0, 0, false, fmt.Errorf("pipeline: merge reduce: %w", err)
		}
		rf := make([][]float64, len(cw.Indices))
		rcodes := make([][]int, nattrs)
		for pos, i := range cw.Indices {
			rf[pos] = features[i]
			for ai := range rcodes {
				rcodes[ai] = append(rcodes[ai], codes[ai][i])
			}
		}
		features, weights, codes = rf, cw.Weights, rcodes
		reduced = true
	}

	ds := &dataset.Dataset{
		FeatureNames: first.featureNames,
		Features:     features,
	}
	for ai, name := range first.attrNames {
		ds.Sensitive = append(ds.Sensitive, &dataset.SensitiveAttr{
			Name:   name,
			Kind:   dataset.Categorical,
			Values: append([]string(nil), merged[ai].Values()...),
			Codes:  codes[ai],
		})
	}
	if err := ds.Validate(); err != nil {
		return nil, nil, 0, 0, false, fmt.Errorf("pipeline: merged summary: %w", err)
	}
	return ds, weights, n, groups, reduced, nil
}
