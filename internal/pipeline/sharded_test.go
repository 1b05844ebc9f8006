package pipeline

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/testfix"
)

// requireBitIdentical asserts two pipeline results are equal down to
// the IEEE-754 bits of every float: same summary rows, weights,
// codes, assignments and objective.
func requireBitIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.N != b.N || a.Groups != b.Groups {
		t.Fatalf("%s: N/Groups %d/%d vs %d/%d", label, a.N, a.Groups, b.N, b.Groups)
	}
	if a.Summary.N() != b.Summary.N() {
		t.Fatalf("%s: summary sizes %d vs %d", label, a.Summary.N(), b.Summary.N())
	}
	for i := range a.Summary.Features {
		for j := range a.Summary.Features[i] {
			if math.Float64bits(a.Summary.Features[i][j]) != math.Float64bits(b.Summary.Features[i][j]) {
				t.Fatalf("%s: summary row %d feature %d differs: %v vs %v", label, i, j, a.Summary.Features[i][j], b.Summary.Features[i][j])
			}
		}
		if math.Float64bits(a.SummaryWeights[i]) != math.Float64bits(b.SummaryWeights[i]) {
			t.Fatalf("%s: weight %d differs: %v vs %v", label, i, a.SummaryWeights[i], b.SummaryWeights[i])
		}
	}
	for ai := range a.Summary.Sensitive {
		sa, sb := a.Summary.Sensitive[ai], b.Summary.Sensitive[ai]
		if len(sa.Values) != len(sb.Values) {
			t.Fatalf("%s: attr %d domain sizes %d vs %d", label, ai, len(sa.Values), len(sb.Values))
		}
		for v := range sa.Values {
			if sa.Values[v] != sb.Values[v] {
				t.Fatalf("%s: attr %d value %d: %q vs %q", label, ai, v, sa.Values[v], sb.Values[v])
			}
		}
		for i := range sa.Codes {
			if sa.Codes[i] != sb.Codes[i] {
				t.Fatalf("%s: attr %d code %d: %d vs %d", label, ai, i, sa.Codes[i], sb.Codes[i])
			}
		}
	}
	for i := range a.Solve.Assign {
		if a.Solve.Assign[i] != b.Solve.Assign[i] {
			t.Fatalf("%s: assignment %d differs: %d vs %d", label, i, a.Solve.Assign[i], b.Solve.Assign[i])
		}
	}
	if math.Float64bits(a.Solve.Objective) != math.Float64bits(b.Solve.Objective) {
		t.Fatalf("%s: objectives differ: %v vs %v", label, a.Solve.Objective, b.Solve.Objective)
	}
	for c := range a.Solve.Centroids {
		for j := range a.Solve.Centroids[c] {
			if math.Float64bits(a.Solve.Centroids[c][j]) != math.Float64bits(b.Solve.Centroids[c][j]) {
				t.Fatalf("%s: centroid %d[%d] differs", label, c, j)
			}
		}
	}
}

// modShardSources splits ds into s row-interleaved sources (row i to
// shard i mod s), emulating what SplitCSV does for files.
func modShardSources(ds *dataset.Dataset, s, chunk int) []Source {
	srcs := make([]Source, s)
	for i := 0; i < s; i++ {
		var idx []int
		for r := i; r < ds.N(); r += s {
			idx = append(idx, r)
		}
		srcs[i] = NewSliceSource(ds.Subset(idx), chunk)
	}
	return srcs
}

// TestFitShardedSingleShardMatchesFitStream pins the S=1 contract: one
// shard at MergeBudget 0 replays FitStream bit-for-bit.
func TestFitShardedSingleShardMatchesFitStream(t *testing.T) {
	ds, src := adultStream(t, 1500, 200)
	cfg := Config{K: 5, AutoLambda: true, CoresetSize: 48, Seed: 7}
	want, err := FitStream(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Shards != 1 {
		t.Fatalf("FitStream records Shards=%d, want 1", want.Shards)
	}

	got, err := FitSharded([]Source{NewSliceSource(ds, 200)}, ShardedConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "FitSharded/S=1", want, got)
}

// TestSliceShards pins the in-memory split: S sources of contiguous
// rows, none empty, whose rows joined in order are ds itself, and one
// shard through FitSharded replays FitStream bit-for-bit.
func TestSliceShards(t *testing.T) {
	ds := testfix.Synth(43, 1000, 4, 2, 0)
	for _, s := range []int{1, 2, 3, 7} {
		srcs := SliceShards(ds, s, 64)
		if len(srcs) != s {
			t.Fatalf("S=%d: %d sources", s, len(srcs))
		}
		row := 0
		for i, src := range srcs {
			rows := 0
			for {
				chunk, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				for r := range chunk.Features {
					for j, v := range chunk.Features[r] {
						if math.Float64bits(v) != math.Float64bits(ds.Features[row][j]) {
							t.Fatalf("S=%d shard %d: row %d feature %d is %v, want %v", s, i, row, j, v, ds.Features[row][j])
						}
					}
					for ai, attr := range chunk.Sensitive {
						want := ds.Sensitive[ai]
						if attr.Values[attr.Codes[r]] != want.Values[want.Codes[row]] {
							t.Fatalf("S=%d shard %d: row %d attr %d differs", s, i, row, ai)
						}
					}
					row++
					rows++
				}
			}
			if rows == 0 {
				t.Fatalf("S=%d: shard %d yields no rows", s, i)
			}
		}
		if row != ds.N() {
			t.Fatalf("S=%d: shards yield %d rows, want %d", s, row, ds.N())
		}
	}

	cfg := Config{K: 4, AutoLambda: true, CoresetSize: 32, Seed: 5}
	want, err := FitStream(NewSliceSource(ds, 64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FitSharded(SliceShards(ds, 1, 64), ShardedConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "SliceShards S=1", want, got)
}

// TestFitShardedWorkerDeterminism pins the parallelism contract: at a
// fixed shard count the result is bit-identical for every worker
// count. CI runs this under -race.
func TestFitShardedWorkerDeterminism(t *testing.T) {
	ds := testfix.Synth(41, 4000, 5, 2, 0)
	for _, s := range []int{2, 3, 4} {
		cfg := ShardedConfig{Config: Config{K: 4, AutoLambda: true, CoresetSize: 32, Seed: 11}}

		var wantSplit *Result
		for _, w := range []int{1, 2, 3, 8, -1} {
			cfg.Workers = w
			got, err := FitSharded(modShardSources(ds, s, 256), ShardedConfig{Config: cfg.Config, Workers: w})
			if err != nil {
				t.Fatalf("S=%d W=%d: %v", s, w, err)
			}
			if got.Shards != s {
				t.Fatalf("S=%d W=%d: result records Shards=%d", s, w, got.Shards)
			}
			if wantSplit == nil {
				wantSplit = got
			} else {
				requireBitIdentical(t, fmt.Sprintf("FitSharded S=%d W=%d", s, w), wantSplit, got)
			}
		}
	}
}

// TestFitShardedMassAndLambda: the merged summary preserves the total
// mass exactly and AutoLambda therefore matches the full-data
// heuristic, for several shard counts.
func TestFitShardedMassAndLambda(t *testing.T) {
	const n, k = 2600, 5
	ds, _ := adultStream(t, n, 200)
	for _, s := range []int{2, 5} {
		res, err := FitSharded(modShardSources(ds, s, 200), ShardedConfig{Config: Config{K: k, AutoLambda: true, CoresetSize: 40, Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if res.N != n {
			t.Fatalf("S=%d: N=%d, want %d", s, res.N, n)
		}
		if total := stats.Sum(res.SummaryWeights); math.Abs(total-float64(n)) > 1e-6 {
			t.Errorf("S=%d: summary mass %v, want %d", s, total, n)
		}
		want := core.DefaultLambda(n, k)
		if math.Abs(res.Lambda-want) > 1e-9*want {
			t.Errorf("S=%d: λ=%v, want %v", s, res.Lambda, want)
		}
	}
}

// TestFitShardedDomainMergeOrderIndependence: categorical codes are
// reconciled by the shard-order domain merge, so which shard sees a
// value first must not change what the merged summary *means*: every
// value keeps its exact total mass and the solve stays valid. Two
// mirrored splits make shard 0 see the values in opposite orders.
func TestFitShardedDomainMergeOrderIndependence(t *testing.T) {
	// 600 rows, attribute g alternating b,a,b,a,... so a 2-way mod
	// split gives shard 0 all-b / shard 1 all-a; swapping the sources
	// reverses which value enters the merged domain first.
	b := dataset.NewBuilder("x", "y")
	b.AddCategoricalSensitive("g")
	rng := stats.NewRNG(5)
	vals := []string{"b", "a"}
	for i := 0; i < 600; i++ {
		v := vals[i%2]
		off := 0.0
		if v == "a" {
			off = 3
		}
		b.Row([]float64{off + rng.Float64(), off + rng.Float64()}, []string{v}, nil)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	srcs := modShardSources(ds, 2, 64)
	cfg := ShardedConfig{Config: Config{K: 2, Lambda: 100, CoresetSize: 16, Seed: 9}}
	fwd, err := FitSharded(srcs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rsrcs := modShardSources(ds, 2, 64)
	rev, err := FitSharded([]Source{rsrcs[1], rsrcs[0]}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	massByValue := func(r *Result) map[string]float64 {
		m := map[string]float64{}
		attr := r.Summary.Sensitive[0]
		for i, c := range attr.Codes {
			m[attr.Values[c]] += r.SummaryWeights[i]
		}
		return m
	}
	fm, rm := massByValue(fwd), massByValue(rev)
	for _, v := range vals {
		if math.Abs(fm[v]-300) > 1e-9 || math.Abs(rm[v]-300) > 1e-9 {
			t.Errorf("value %q mass drifted: fwd %v rev %v, want 300", v, fm[v], rm[v])
		}
	}
	// First-seen order differs, so the merged code of "a" must differ
	// between the two runs while both stay self-consistent.
	if fwd.Summary.Sensitive[0].Values[0] == rev.Summary.Sensitive[0].Values[0] {
		t.Fatalf("expected opposite first-seen values, both got %q", fwd.Summary.Sensitive[0].Values[0])
	}
	if fwd.Groups != 2 || rev.Groups != 2 {
		t.Errorf("groups: fwd %d rev %d, want 2", fwd.Groups, rev.Groups)
	}
}

// TestFitShardedMergeBudget: when the union of shard summaries exceeds
// the budget, one LightweightWeighted reduce pass shrinks it while
// preserving every group's mass exactly; below the budget no reduce
// runs.
func TestFitShardedMergeBudget(t *testing.T) {
	const n = 4000
	ds := testfix.Synth(17, n, 4, 1, 0)
	srcs := modShardSources(ds, 4, 256)
	budget := 120
	res, err := FitSharded(srcs, ShardedConfig{
		Config:      Config{K: 4, AutoLambda: true, CoresetSize: 64, Seed: 2},
		MergeBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reduced {
		t.Fatal("expected the union to exceed the budget and be reduced")
	}
	// Each group gets max(1, budget·|g|/total) rows, so the reduced
	// summary is at most budget + groups rows.
	if res.Summary.N() > budget+res.Groups {
		t.Errorf("reduced summary has %d rows, budget %d (+%d groups)", res.Summary.N(), budget, res.Groups)
	}
	if total := stats.Sum(res.SummaryWeights); math.Abs(total-float64(n)) > 1e-6 {
		t.Errorf("reduced summary mass %v, want %d", total, n)
	}
	// Per-group masses survive the reduce: each sensitive value's
	// summed weight is its exact stream count.
	attr := res.Summary.Sensitive[0]
	byValue := map[string]float64{}
	for i, c := range attr.Codes {
		byValue[attr.Values[c]] += res.SummaryWeights[i]
	}
	want := map[string]float64{}
	full := ds.Sensitive[0]
	for _, c := range full.Codes {
		want[full.Values[c]]++
	}
	for v, w := range want {
		if math.Abs(byValue[v]-w) > 1e-6 {
			t.Errorf("value %q mass %v after reduce, want %v", v, byValue[v], w)
		}
	}

	// A budget the union already fits under must not trigger a reduce.
	res2, err := FitSharded(modShardSources(ds, 4, 256), ShardedConfig{
		Config:      Config{K: 4, AutoLambda: true, CoresetSize: 64, Seed: 2},
		MergeBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reduced {
		t.Error("budget larger than the union must not reduce")
	}
}

// TestFitShardedAdultWithinFivePercent extends the pipeline acceptance
// bar to the sharded path: on Adult-6500 split 4 ways the merged-
// summary solve stays within 5% of the full-data solve.
func TestFitShardedAdultWithinFivePercent(t *testing.T) {
	const n, k, m, s = 6500, 7, 80, 4
	ds, _ := adultStream(t, n, 500)
	res, err := FitSharded(modShardSources(ds, s, 500), ShardedConfig{
		Config: Config{K: k, AutoLambda: true, CoresetSize: m, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Run(ds, core.Config{K: k, AutoLambda: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Solve.Objective / full.Objective
	t.Logf("S=%d summary rows=%d objective: sharded %.4f vs full %.4f (ratio %.4f)",
		s, res.Summary.N(), res.Solve.Objective, full.Objective, ratio)
	if ratio > 1.05 {
		t.Errorf("sharded summary objective %.4f is %.1f%% above the full solve %.4f (>5%%)",
			res.Solve.Objective, 100*(ratio-1), full.Objective)
	}
}

// TestFitShardedCSVEndToEnd drives the real file path: WriteCSV →
// SplitCSV byte ranges → FitSharded over shard streams, deterministic
// across worker counts and consistent with the file's row count.
func TestFitShardedCSVEndToEnd(t *testing.T) {
	ds := testfix.Synth(29, 1200, 3, 2, 0)
	path := filepath.Join(t.TempDir(), "synth.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, ds); err != nil {
		t.Fatal(err)
	}
	f.Close()
	spec := dataset.CSVSpec{Features: ds.FeatureNames}
	for _, attr := range ds.Sensitive {
		spec.CategoricalSensitive = append(spec.CategoricalSensitive, attr.Name)
	}

	shards, err := dataset.SplitCSV(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Result {
		t.Helper()
		srcs := make([]Source, shards.Shards())
		var closers []io.Closer
		for i := range srcs {
			stream, closer, err := shards.Open(i, spec, 128)
			if err != nil {
				t.Fatal(err)
			}
			srcs[i] = stream
			closers = append(closers, closer)
		}
		defer func() {
			for _, c := range closers {
				c.Close()
			}
		}()
		res, err := FitSharded(srcs, ShardedConfig{
			Config:  Config{K: 3, AutoLambda: true, CoresetSize: 24, Seed: 13},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	if want.N != ds.N() {
		t.Fatalf("streamed %d rows from shards, want %d", want.N, ds.N())
	}
	for _, w := range []int{2, 3, -1} {
		requireBitIdentical(t, fmt.Sprintf("csv W=%d", w), want, run(w))
	}
}

// TestFitShardedValidation covers the sharded entry points' error
// paths.
func TestFitShardedValidation(t *testing.T) {
	ds := testfix.Synth(3, 200, 3, 1, 0)
	if _, err := FitSharded(nil, ShardedConfig{Config: Config{K: 2}}); err == nil {
		t.Error("no sources should error")
	}
	if _, err := FitSharded(modShardSources(ds, 2, 64), ShardedConfig{Config: Config{K: 0}}); err == nil {
		t.Error("K=0 should error")
	}
	// Empty stream across all shards.
	empty := testfix.Synth(3, 200, 3, 1, 0).Subset(nil)
	if _, err := FitSharded([]Source{NewSliceSource(empty, 8), NewSliceSource(empty, 8)}, ShardedConfig{Config: Config{K: 2}}); err == nil {
		t.Error("all-empty shards should error")
	}
	// Schema mismatch between shards.
	other := testfix.Synth(4, 200, 5, 1, 0)
	if _, err := FitSharded([]Source{NewSliceSource(ds, 64), NewSliceSource(other, 64)}, ShardedConfig{Config: Config{K: 2}}); err == nil {
		t.Error("mismatched shard schemas should error")
	}
}
