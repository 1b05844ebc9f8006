package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (r *fuzzBytes) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeShardedProblem turns fuzz bytes into a small categorical
// problem and returns a function that splits it into fresh shard
// sources (a fit drains them). Byte layout, each value taken modulo its
// range:
//
//	0 rows−1 (≤ 64)   1 dim−1 (≤ 3)   2 k−1 (≤ 4, capped at rows)
//	3 attrs−1 (≤ 3)   4 shards−1 (≤ 4)   5 chunk−1 (≤ 16)
//	6 MergeBudget (≤ 47, 0 = never reduce)   7 CoresetSize−1 (≤ 8)
//	8 flags: bit 0 auto λ   9 λ·4   10 seed
//
// then each attribute's domain size −1 (≤ 6), then per row dim
// features (int8/8) and one value per attribute. Bytes past the end
// read as zero.
func decodeShardedProblem(data []byte) (func() []Source, ShardedConfig, error) {
	r := fuzzBytes(data)
	n := 1 + r.next()%64
	dim := 1 + r.next()%3
	k := min(1+r.next()%4, n)
	nCat := 1 + r.next()%3
	shards := 1 + r.next()%4
	chunk := 1 + r.next()%16
	cfg := ShardedConfig{
		MergeBudget: r.next() % 48,
		Config: Config{
			K:           k,
			CoresetSize: 1 + r.next()%8,
		},
	}
	cfg.AutoLambda = r.next()&1 != 0
	cfg.Lambda = float64(r.next()) / 4
	cfg.Seed = int64(r.next())

	names := make([]string, dim)
	for j := range names {
		names[j] = fmt.Sprintf("f%d", j)
	}
	b := dataset.NewBuilder(names...)
	domains := make([]int, nCat)
	for a := range domains {
		domains[a] = 1 + r.next()%6
		dom := make([]string, domains[a])
		for v := range dom {
			dom[v] = fmt.Sprintf("v%d", v)
		}
		b.AddCategoricalSensitiveWithDomain(fmt.Sprintf("s%d", a), dom)
	}
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = float64(int8(r.next())) / 8
		}
		cats := make([]string, nCat)
		for a := range cats {
			cats[a] = fmt.Sprintf("v%d", r.next()%domains[a])
		}
		b.Row(x, cats, nil)
	}
	ds, err := b.Build()
	if err != nil {
		return nil, cfg, err
	}
	return func() []Source { return SliceShards(ds, shards, chunk) }, cfg, nil
}

// FuzzFitShardedWorkers holds FitSharded to its determinism contract
// (DESIGN.md "Determinism contract"): at a fixed shard split, Workers
// 1, 2, 3 and −1 give bit-identical summaries, weights, assignments,
// centroids and objectives — or the same error.
func FuzzFitShardedWorkers(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		split, cfg, err := decodeShardedProblem(data)
		if err != nil {
			t.Skip(err)
		}
		fit := func(workers int) (*Result, error) {
			c := cfg
			c.Workers = workers
			return FitSharded(split(), c)
		}
		want, wantErr := fit(1)
		for _, w := range []int{2, 3, -1} {
			got, err := fit(w)
			if wantErr != nil || err != nil {
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("Workers %d: error %v, Workers 1: %v", w, err, wantErr)
				}
				continue
			}
			requireBitIdentical(t, fmt.Sprintf("Workers %d vs 1", w), want, got)
		}
	})
}
