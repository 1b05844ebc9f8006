package zgya

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// naiveObjective recomputes SSE + λ·Σ_C KL(U‖P_C) from scratch for an
// arbitrary assignment, mirroring the package objective definition.
func naiveObjective(ds *dataset.Dataset, s *dataset.SensitiveAttr, assign []int, k int, lambda float64) float64 {
	counts := make([]int, k)
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, ds.Dim())
	}
	valCounts := make([][]int, k)
	for c := range valCounts {
		valCounts[c] = make([]int, len(s.Values))
	}
	for i, c := range assign {
		counts[c]++
		stats.AddTo(sums[c], ds.Features[i])
		valCounts[c][s.Codes[i]]++
	}
	sse := 0.0
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		mu := stats.Clone(sums[c])
		stats.Scale(mu, 1/float64(counts[c]))
		for i, a := range assign {
			if a == c {
				sse += stats.SqDist(ds.Features[i], mu)
			}
		}
	}
	u := ds.Fractions(s)
	kl := 0.0
	for c := 0; c < k; c++ {
		for j, uj := range u {
			if uj <= 0 {
				continue
			}
			p := epsilon
			if counts[c] > 0 {
				p = float64(valCounts[c][j]) / float64(counts[c])
				if p < epsilon {
					p = epsilon
				}
			}
			kl += uj * math.Log(uj/p)
		}
	}
	return sse + lambda*kl
}

// TestMoveDeltaMatchesNaive verifies that the solver's Delta — the
// exact move delta frozen-sweep revalidation applies — equals full
// objective recomputation, with every move applied through Move.
func TestMoveDeltaMatchesNaive(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(30)
		k := 2 + rng.Intn(3)
		nvals := 2 + rng.Intn(3)
		b := dataset.NewBuilder("x", "y")
		b.AddCategoricalSensitive("g")
		for i := 0; i < n; i++ {
			b.Row([]float64{rng.Gaussian(0, 3), rng.Gaussian(0, 3)},
				[]string{string(rune('a' + rng.Intn(nvals)))}, nil)
		}
		ds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := ds.SensitiveByName("g")
		lambda := []float64{0, 1, 25}[rng.Intn(3)]

		st := newSolver(ds, s, Config{K: k, Lambda: lambda, Seed: int64(trial)})
		base := naiveObjective(ds, s, st.assign, k, lambda)
		for probe := 0; probe < 8; probe++ {
			i := rng.Intn(n)
			from := st.assign[i]
			to := rng.Intn(k)
			if to == from {
				continue
			}
			incr := st.Delta(i, from, to)

			moved := append([]int(nil), st.assign...)
			moved[i] = to
			naive := naiveObjective(ds, s, moved, k, lambda) - base

			if math.Abs(incr-naive) > 1e-7*(1+math.Abs(naive)) {
				t.Fatalf("trial %d probe %d: delta %v, naive %v (λ=%v)", trial, probe, incr, naive, lambda)
			}
			// Apply and continue from the new state.
			st.Move(i, from, to)
			base += naive
		}
	}
}

// TestSweepMonotone: each coordinate-descent sweep must not increase
// the objective.
func TestSweepMonotone(t *testing.T) {
	rng := stats.NewRNG(88)
	b := dataset.NewBuilder("x")
	b.AddCategoricalSensitive("g")
	for i := 0; i < 50; i++ {
		b.Row([]float64{rng.Gaussian(float64(i%3)*4, 1)}, []string{string(rune('a' + i%2))}, nil)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := ds.SensitiveByName("g")
	st := newSolver(ds, s, Config{K: 3, Lambda: 30, Seed: 5})
	sw := engine.NewFullSweep(st)
	prev := naiveObjective(ds, s, st.assign, 3, 30)
	for iter := 0; iter < 10; iter++ {
		moves := sw.Sweep()
		cur := naiveObjective(ds, s, st.assign, 3, 30)
		if cur > prev+1e-7*(1+math.Abs(prev)) {
			t.Fatalf("iteration %d increased objective: %v -> %v", iter, prev, cur)
		}
		prev = cur
		if moves == 0 {
			break
		}
	}
}
