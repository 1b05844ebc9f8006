package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/testfix"
)

// direct returns a copy of st that shares its statistics but scores
// without the delta memo.
func direct(st *state) *state {
	d := *st
	d.fair.rowProf, d.fair.memoFull = nil, false
	return &d
}

// memoFresh reports, per slot of both memo tables, whether it holds a
// value stored at its cluster's current generation.
func memoFresh(st *state) []bool {
	fresh := make([]bool, 0, 2*len(st.fair.memoIn))
	for _, tab := range [][]memoEntry{st.fair.memoIn, st.fair.memoOut} {
		for s, e := range tab {
			fresh = append(fresh, e.gen == st.fair.gen[s/st.fair.nProf])
		}
	}
	return fresh
}

// checkMemoDeltas scores every (c, i, ±1) through the memo and against
// the memo-free kernel, requiring the same bits, and returns how many
// of those calls found their slot fresh.
func checkMemoDeltas(t *testing.T, st *state, step int) int {
	t.Helper()
	ref := direct(st)
	hits := 0
	for c := 0; c < st.k; c++ {
		for i := 0; i < st.n; i++ {
			for _, sign := range []int{+1, -1} {
				tab := st.fair.memoIn
				if sign < 0 {
					tab = st.fair.memoOut
				}
				if tab[c*st.fair.nProf+int(st.fair.rowProf[i])].gen == st.fair.gen[c] {
					hits++
				}
				got, want := st.fair.fairDelta(&st.km, c, i, sign), ref.fair.deviationWithDelta(&ref.km, c, i, sign)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: delta(c=%d, i=%d, sign=%+d) = %v through the memo, %v direct",
						step, c, i, sign, got, want)
				}
			}
		}
	}
	return hits
}

// TestDeltaMemoInvalidation scripts moves on small problems with the
// memo forced on. After each move, a slot is fresh exactly when it was
// fresh before and the move left its cluster alone, and every memoized
// delta has the bits of a direct deviationWithDelta call.
func TestDeltaMemoInvalidation(t *testing.T) {
	repeated := make([]float64, 40)
	for i := range repeated {
		repeated[i] = []float64{0.5, 1, 2.5}[i%3]
	}
	problems := []struct {
		name string
		ds   *dataset.Dataset
		rowW []float64
	}{
		{"unit", testfix.Synth(5, 40, 3, 2, 0), nil},
		{"weighted", testfix.Synth(5, 40, 3, 2, 0), repeated},
		{"numeric", testfix.Synth(6, 40, 3, 2, 1), nil},
	}
	const k = 4
	for _, p := range problems {
		t.Run(p.name, func(t *testing.T) {
			cfg := Config{K: k, memo: memoOn}
			assign := make([]int, p.ds.N())
			for i := range assign {
				assign[i] = i % k
			}
			st := newState(p.ds, &cfg, 3, assign, p.rowW)
			if st.fair.rowProf == nil || st.fair.nProf >= st.n {
				t.Fatalf("memo off or no shared profile: %d profiles for %d rows", st.fair.nProf, st.n)
			}
			if st.fair.memoFull != (len(st.fair.numReals) == 0) {
				t.Fatalf("memoFull = %v with %d numeric attributes", st.fair.memoFull, len(st.fair.numReals))
			}
			rng := stats.NewRNG(9)
			hits := checkMemoDeltas(t, st, 0)
			for step := 1; step <= 60; step++ {
				i := rng.Intn(st.n)
				from := st.assign[i]
				to := (from + 1 + rng.Intn(k-1)) % k
				before := memoFresh(st)
				st.move(i, from, to)
				for s, fresh := range memoFresh(st) {
					c := (s % len(st.fair.memoIn)) / st.fair.nProf
					if want := before[s] && c != from && c != to; fresh != want {
						t.Fatalf("step %d (row %d: %d→%d): slot %d of cluster %d fresh=%v, want %v",
							step, i, from, to, s, c, fresh, want)
					}
				}
				hits += checkMemoDeltas(t, st, step)
			}
			if hits == 0 {
				t.Fatal("no memoized delta was ever reused")
			}

			// A generation that wraps must not revive a slot stored
			// 2³² bumps earlier.
			st.fair.memoIn[0] = memoEntry{gen: 1, val: 42}
			st.fair.gen[0] = math.MaxUint32
			st.fair.bump(0)
			if st.fair.memoIn[0].gen == st.fair.gen[0] {
				t.Fatalf("slot stamped 1 is fresh after the generation wrapped to %d", st.fair.gen[0])
			}
			checkMemoDeltas(t, st, -1)
		})
	}
}

// TestDeltaMemoCutoff: the memo is on for shared profiles and off
// where it cannot pay — distinct weights, no categorical attribute,
// the naive kernel, frozen snapshots — or where a test turns it off.
func TestDeltaMemoCutoff(t *testing.T) {
	ds := testfix.Synth(5, 400, 3, 2, 0)
	distinct := make([]float64, ds.N())
	for i := range distinct {
		distinct[i] = 1 + float64(i)/float64(ds.N())
	}
	assign := make([]int, ds.N())
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
		cfg  Config
		rowW []float64
		on   bool
	}{
		{"shared", ds, Config{K: 3}, nil, true},
		{"distinct-weights", ds, Config{K: 3}, distinct, false},
		{"distinct-weights-forced", ds, Config{K: 3, memo: memoOn}, distinct, true},
		{"numeric-only", testfix.Synth(5, 400, 3, 0, 1), Config{K: 3, memo: memoOn}, nil, false},
		{"naive", ds, Config{K: 3, naiveKernel: true, memo: memoOn}, nil, false},
		{"off", ds, Config{K: 3, memo: memoOff}, nil, false},
	} {
		st := newState(tc.ds, &tc.cfg, 1, assign, tc.rowW)
		if on := st.fair.rowProf != nil; on != tc.on {
			t.Errorf("%s: memo on = %v (%d profiles, %d rows), want %v", tc.name, on, st.fair.nProf, st.n, tc.on)
		}
		if tc.on && len(st.fair.memoIn) != st.k*st.fair.nProf {
			t.Errorf("%s: table of %d slots for k=%d × %d profiles", tc.name, len(st.fair.memoIn), st.k, st.fair.nProf)
		}
		fz := st.newFrozen()
		st.freezeInto(fz)
		if fz.fair.rowProf != nil || fz.fair.memoFull {
			t.Errorf("%s: frozen snapshot carries the memo", tc.name)
		}
	}
}

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

// FuzzFitContracts holds FairKM to its exactness contracts on small
// decoded problems (decodeFitProblem), each checked bit for bit:
// Parallelism 1, 2 and 3 give the same Result; RunWeighted with
// all-ones weights equals Run; and the delta memo, forced on or off,
// changes nothing, sequentially or in the parallel sweep. Two
// tolerance contracts hold the incremental statistics to the paper's
// objective: the sequential run's final Objective equals
// EvaluateObjectiveWeighted on its assignment, and no sequential sweep
// raises the recorded objective (Algorithm 1 takes only improving
// moves), each within 1e-9 relative to max(1, |value|).
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
		with := func(par int, memo memoPolicy) Config {
			c := cfg
			c.Parallelism, c.memo = par, memo
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
		check("sequential, memo on", run("memo on", with(0, memoOn), rowW), seq)
		check("sequential, memo off", run("memo off", with(0, memoOff), rowW), seq)

		par1 := run("Parallelism 1", with(1, memoAuto), rowW)
		check("Parallelism 2", run("Parallelism 2", with(2, memoAuto), rowW), par1)
		check("Parallelism 3", run("Parallelism 3", with(3, memoAuto), rowW), par1)
		check("Parallelism 2, memo on", run("Parallelism 2, memo on", with(2, memoOn), rowW), par1)
		check("Parallelism 2, memo off", run("Parallelism 2, memo off", with(2, memoOff), rowW), par1)

		ones := make([]float64, ds.N())
		for i := range ones {
			ones[i] = 1
		}
		check("RunWeighted with unit weights", run("RunWeighted", cfg, ones), run("Run", cfg, nil))
	})
}
