package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// fuzzReader hands out the fuzz input a byte at a time, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeFitProblem turns fuzz bytes into a small FairKM problem. Byte
// layout, each value taken modulo its range:
//
//	0 rows−1 (≤ 64)   1 dim−1 (≤ 4)   2 k−1 (≤ 6, capped at rows)
//	3 categorical attributes − 1 (≤ 3)
//	4 flags: bit 0 a numeric sensitive attribute, bit 1 row weights,
//	  bit 2 auto λ, bit 3 a weight on attribute s0, bits 4–7 Init
//	5 fixed λ·4   6 seed
//	then one domain size − 1 (≤ 6) per categorical attribute, the s0
//	weight·2 (when flagged), and per row: dim feature bytes (int8/8),
//	one code byte per categorical attribute, the numeric value·16 and
//	the weight/0.5 − 1 (≤ 4), the last two when flagged.
//
// Bytes past the end read as zero.
func decodeFitProblem(data []byte) (*dataset.Dataset, []float64, Config, error) {
	r := fuzzReader(data)
	n := 1 + r.next()%64
	dim := 1 + r.next()%4
	k := min(1+r.next()%6, n)
	nCat := 1 + r.next()%3
	flags := r.next()
	numeric, weighted := flags&1 != 0, flags&2 != 0
	cfg := Config{
		K:          k,
		Lambda:     float64(r.next()) / 4,
		AutoLambda: flags&4 != 0,
		Seed:       int64(r.next()),
		Init:       initMethods[(flags>>4)%len(initMethods)],
	}
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
	if numeric {
		b.AddNumericSensitive("num")
	}
	if flags&8 != 0 {
		cfg.Weights = map[string]float64{"s0": float64(r.next()%8) / 2}
	}
	var rowW []float64
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = float64(int8(r.next())) / 8
		}
		cats := make([]string, nCat)
		for a := range cats {
			cats[a] = fmt.Sprintf("v%d", r.next()%domains[a])
		}
		var nums []float64
		if numeric {
			nums = []float64{float64(r.next()) / 16}
		}
		b.Row(x, cats, nums)
		if weighted {
			rowW = append(rowW, float64(1+r.next()%4)/2)
		}
	}
	ds, err := b.Build()
	return ds, rowW, cfg, err
}

// initMethods are the initializers decodeFitProblem picks from.
var initMethods = []engine.InitMethod{engine.KMeansPlusPlus, engine.RandomPartition, engine.RandomPoints}

// sameResult describes the first difference between two results,
// compared bit for bit; Masses are compared only when both are set.
func sameResult(a, b *Result) string {
	switch {
	case a.Iterations != b.Iterations || a.Converged != b.Converged || a.TotalMoves != b.TotalMoves:
		return fmt.Sprintf("iterations %d/%v/%d moves vs %d/%v/%d", a.Iterations, a.Converged, a.TotalMoves,
			b.Iterations, b.Converged, b.TotalMoves)
	case math.Float64bits(a.Objective) != math.Float64bits(b.Objective) ||
		math.Float64bits(a.KMeansTerm) != math.Float64bits(b.KMeansTerm) ||
		math.Float64bits(a.FairnessTerm) != math.Float64bits(b.FairnessTerm) ||
		math.Float64bits(a.Lambda) != math.Float64bits(b.Lambda):
		return fmt.Sprintf("objective %v = %v + λ%v·%v vs %v = %v + λ%v·%v", a.Objective, a.KMeansTerm, a.Lambda,
			a.FairnessTerm, b.Objective, b.KMeansTerm, b.Lambda, b.FairnessTerm)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			return fmt.Sprintf("assign[%d] = %d vs %d", i, a.Assign[i], b.Assign[i])
		}
	}
	for c := range a.Centroids {
		if a.Sizes[c] != b.Sizes[c] {
			return fmt.Sprintf("size[%d] = %d vs %d", c, a.Sizes[c], b.Sizes[c])
		}
		if a.Masses != nil && b.Masses != nil && math.Float64bits(a.Masses[c]) != math.Float64bits(b.Masses[c]) {
			return fmt.Sprintf("mass[%d] = %v vs %v", c, a.Masses[c], b.Masses[c])
		}
		for j := range a.Centroids[c] {
			if math.Float64bits(a.Centroids[c][j]) != math.Float64bits(b.Centroids[c][j]) {
				return fmt.Sprintf("centroid[%d][%d] = %v vs %v", c, j, a.Centroids[c][j], b.Centroids[c][j])
			}
		}
	}
	return ""
}

// within1e9 reports whether a and b agree within 1e-9 relative to
// max(1, |a|, |b|).
func within1e9(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkKernelsAgree scores every row of the initial state of the
// decoded problem (ds, rowW, cfg) at λ with the aggregate kernel and
// with the per-value reference kernel. Where the two bestMove calls
// pick different clusters, the reference kernel's objective changes of
// the two picks (0 for staying put) must agree within 1e-9 relative:
// the aggregate kernel may break a near-tie the other way, never pass
// over a better move.
func checkKernelsAgree(t *testing.T, ds *dataset.Dataset, rowW []float64, cfg Config, lambda float64) {
	t.Helper()
	assign := engine.InitAssignmentWeighted(ds.Features, rowW, cfg.K, cfg.Init, stats.NewRNG(cfg.Seed))
	agg := newState(ds, &cfg, lambda, append([]int(nil), assign...), rowW)
	naiveCfg := cfg
	naiveCfg.naiveKernel = true
	naive := newState(ds, &naiveCfg, lambda, assign, rowW)
	delta := func(i, from, to int) float64 {
		if to == from {
			return 0
		}
		return naive.moveDelta(i, from, to)
	}
	for i, from := range assign {
		a, b := agg.bestMove(i, from), naive.bestMove(i, from)
		if a == b {
			continue
		}
		if da, db := delta(i, from, a), delta(i, from, b); !within1e9(da, db) {
			t.Fatalf("row %d in cluster %d: aggregate kernel picks %d (naive δ %v), naive kernel %d (δ %v)",
				i, from, a, da, b, db)
		}
	}
}

// FuzzFitContracts holds FairKM to its exactness contracts on small
// decoded problems (decodeFitProblem), each checked bit for bit:
// Parallelism 1, 2 and 3 give the same Result; RunWeighted with
// all-ones weights equals Run; and turning the candidate skip bound
// off changes nothing, sequentially or in the parallel sweep. Three
// tolerance contracts hold the incremental statistics to the paper's
// objective and the aggregate kernel to the per-value reference: the
// sequential run's final Objective equals EvaluateObjectiveWeighted on
// its assignment, no sequential sweep raises the recorded objective
// (Algorithm 1 takes only improving moves), and where the two kernels
// pick different moves from the initial state the reference deltas of
// both picks agree (checkKernelsAgree), each within 1e-9 relative to
// max(1, |value|).
func FuzzFitContracts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{39, 2, 3, 1, 0x04, 0, 1, 2, 3})
	f.Add([]byte{63, 3, 5, 2, 0x0f, 0, 7, 1, 5, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, rowW, cfg, err := decodeFitProblem(data)
		if err != nil {
			t.Skip(err)
		}
		cfg.RecordHistory = true
		run := func(label string, cfg Config, w []float64) *Result {
			var res *Result
			var err error
			if w == nil {
				res, err = Run(ds, cfg)
			} else {
				res, err = RunWeighted(ds, w, cfg)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return res
		}
		check := func(label string, got, want *Result) {
			if d := sameResult(got, want); d != "" {
				t.Fatalf("%s: %s", label, d)
			}
		}
		with := func(par int) Config {
			c := cfg
			c.Parallelism = par
			return c
		}

		seq := run("sequential", cfg, rowW)
		want, err := EvaluateObjectiveWeighted(ds, rowW, seq.Assign, cfg.K, seq.Lambda, cfg.Weights)
		if err != nil {
			t.Fatal(err)
		}
		if !within1e9(seq.Objective, want.Objective) {
			t.Fatalf("final objective %v = %v + λ%v·%v, from scratch %v = %v + λ·%v", seq.Objective,
				seq.KMeansTerm, seq.Lambda, seq.FairnessTerm, want.Objective, want.KMeansTerm, want.FairnessTerm)
		}
		for it := 1; it < len(seq.History); it++ {
			if prev, cur := seq.History[it-1].Objective, seq.History[it].Objective; cur > prev && !within1e9(cur, prev) {
				t.Fatalf("sweep %d raised the objective %v → %v", it+1, prev, cur)
			}
		}
		checkKernelsAgree(t, ds, rowW, cfg, seq.Lambda)

		par1 := run("Parallelism 1", with(1), rowW)
		check("Parallelism 2", run("Parallelism 2", with(2), rowW), par1)
		check("Parallelism 3", run("Parallelism 3", with(3), rowW), par1)

		noSkip := cfg
		noSkip.noSkip = true
		check("sequential, skip off", run("skip off", noSkip, rowW), seq)
		noSkip.Parallelism = 2
		check("Parallelism 2, skip off", run("Parallelism 2, skip off", noSkip, rowW), par1)

		ones := make([]float64, ds.N())
		for i := range ones {
			ones[i] = 1
		}
		check("RunWeighted with unit weights", run("RunWeighted", cfg, ones), run("Run", cfg, nil))
	})
}
