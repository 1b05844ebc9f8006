package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/data/adult"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// benchAdult lazily generates the Adult-scale benchmark workload from
// the acceptance criteria: n >= 6000, five categorical sensitive
// attributes with domain sizes up to 41 (so the per-value kernel has
// Σ_S |Values(S)| = 61 inner iterations per candidate to amortize).
var (
	benchAdultOnce sync.Once
	benchAdultDS   *dataset.Dataset
)

const benchK = 15

func benchAdultDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	benchAdultOnce.Do(func() {
		ds, err := adult.Generate(adult.Config{Seed: 7, Rows: 6500, SkipParity: true})
		if err != nil {
			b.Fatalf("generating Adult: %v", err)
		}
		ds.MinMaxNormalize()
		benchAdultDS = ds
	})
	return benchAdultDS
}

// benchState builds the kernel benchmarks' state.
func benchState(b *testing.B, ds *dataset.Dataset, naive bool) *state {
	b.Helper()
	cfg := Config{K: benchK, AutoLambda: true, Seed: 5, naiveKernel: naive}
	lambda := DefaultLambda(ds.N(), cfg.K)
	assign := engine.InitAssignmentWeighted(ds.Features, nil, cfg.K, cfg.Init, stats.NewRNG(cfg.Seed))
	return newState(ds, &cfg, lambda, assign, nil)
}

// BenchmarkSweep measures one full coordinate-descent pass (the FairKM
// hot path) with the O(1) aggregate kernel versus the per-value
// reference kernel. The acceptance bar for this PR is aggregate >= 2x
// faster than naive at this scale.
func BenchmarkSweep(b *testing.B) {
	ds := benchAdultDataset(b)
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"aggregate", false}, {"naive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			st := benchState(b, ds, mode.naive)
			sw := engine.NewFullSweep(st)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.Sweep()
			}
		})
	}
}

// BenchmarkBestMove measures the per-point scoring kernel alone: one
// bestMove call scores k candidate clusters across all sensitive
// attributes.
func BenchmarkBestMove(b *testing.B) {
	ds := benchAdultDataset(b)
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"aggregate", false}, {"naive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			st := benchState(b, ds, mode.naive)
			b.ResetTimer()
			row := 0
			for i := 0; i < b.N; i++ {
				st.bestMove(row, st.assign[row])
				row++
				if row == st.n {
					row = 0
				}
			}
		})
	}
}

// BenchmarkSweepParallel measures the frozen-statistics parallel sweep
// at several worker counts (p=1 isolates the frozen-snapshot overhead
// versus BenchmarkSweep/aggregate).
func BenchmarkSweepParallel(b *testing.B) {
	ds := benchAdultDataset(b)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			st := benchState(b, ds, false)
			sw := engine.NewFrozenSweep(st, engine.FrozenOpts{Workers: p, Revalidate: true})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.Sweep()
			}
		})
	}
}

// fitAdultDataset lazily generates the table of the end-to-end
// benchmark's fit-adult workload: full-size Adult at income parity
// (15,818 rows), seed 1, min-max scaled.
var fitAdultDataset = sync.OnceValues(func() (*dataset.Dataset, error) {
	ds, err := adult.Generate(adult.Config{Seed: 1, Rows: adult.FullSize})
	if err != nil {
		return nil, err
	}
	ds.MinMaxNormalize()
	return ds, nil
})

// BenchmarkRunAdult is the end-to-end wall-clock view: a full FairKM
// run (up to 10 iterations) sequentially versus with an auto-sized
// parallel sweep; fit-adult, the end-to-end benchmark's fit at its
// exact shape (15,818 rows, k 15, auto-λ, seed 1, sequential, the
// default iteration cap); and weighted, the same fit through
// RunWeighted with seeded weights 1..64 per row, the path of the
// weighted summary solve after summarize-then-solve.
func BenchmarkRunAdult(b *testing.B) {
	for _, mode := range []struct {
		name string
		par  int
	}{{"sequential", 0}, {"parallel", ParallelismAuto}} {
		b.Run(mode.name, func(b *testing.B) {
			ds := benchAdultDataset(b)
			for i := 0; i < b.N; i++ {
				if _, err := Run(ds, Config{
					K: benchK, AutoLambda: true, Seed: 5, MaxIter: 10,
					Parallelism: mode.par,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("fit-adult", func(b *testing.B) {
		ds, err := fitAdultDataset()
		if err != nil {
			b.Fatalf("generating Adult: %v", err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(ds, Config{K: benchK, AutoLambda: true, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("weighted", func(b *testing.B) {
		ds, err := fitAdultDataset()
		if err != nil {
			b.Fatalf("generating Adult: %v", err)
		}
		rng := stats.NewRNG(1)
		w := make([]float64, ds.N())
		for i := range w {
			w[i] = float64(1 + rng.Intn(64))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunWeighted(ds, w, Config{K: benchK, AutoLambda: true, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
