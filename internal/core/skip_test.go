package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/testfix"
)

// checkSkipBound requires, for every row i and cluster c of st, that
// the padded skip bound is at most the float fairness change
// deviationWithDelta(c, i, +1) − devCache[c] the kernel computes, and
// that a frozen copy carries the same bound bits. Every lane of
// lowerBound4, at every block base 0..k−4 (so at the overlapping last
// block bestMove uses too), live and frozen, must equal the scalar
// bound of its cluster bit for bit. It returns how many bounds came
// within 1e-9 of the value (scaled by its magnitude).
func checkSkipBound(t *testing.T, st *state, label string) int {
	t.Helper()
	km, fair := &st.km, &st.fair
	fz := st.newFrozen()
	st.freezeInto(fz)
	tight := 0
	for c := 0; c < st.k; c++ {
		for i := 0; i < st.n; i++ {
			if math.Float64bits(fz.fair.lowerBound(c, i, km.Weight(i), fz.fair.skipQuad(i))) !=
				math.Float64bits(fair.lowerBound(c, i, km.Weight(i), fair.skipQuad(i))) {
				t.Fatalf("%s: frozen bound of cluster %d, row %d differs from the live one", label, c, i)
			}
			lb := fair.lowerBound(c, i, km.Weight(i), fair.skipQuad(i))
			got := fair.deviationWithDelta(km, c, i, +1) - fair.devCache[c]
			if !(lb <= got) {
				t.Fatalf("%s: bound %v > fairness change %v (cluster %d: %d rows, mass %v; row %d, weight %v)",
					label, lb, got, c, km.Counts[c], km.Mass[c], i, km.Weight(i))
			}
			if got-lb <= 1e-9*math.Max(1e-300, math.Abs(got)+fair.devCache[c]) {
				tight++
			}
		}
	}
	for base := 0; base+4 <= st.k; base++ {
		for i := 0; i < st.n; i++ {
			for _, f := range []*fairStats{fair, &fz.fair} {
				var lanes [4]float64
				w, r := km.Weight(i), f.skipQuad(i)
				lanes[0], lanes[1], lanes[2], lanes[3] = f.lowerBound4(base, i, w, r)
				for b, got := range lanes {
					if want := f.lowerBound(base+b, i, w, r); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: lowerBound4 at base %d, lane %d (row %d) gives %v, lowerBound %v",
							label, base, b, i, got, want)
					}
				}
			}
		}
	}
	return tight
}

// checkSkipMoves requires that bestMove picks the same cluster for
// every row with the skip bound on as with it off, at st's λ and at
// λ = 0, and that both pick what scanning every other cluster with
// moveDelta in index order picks: the lowest index of least δ < 0, or
// the row's own cluster.
func checkSkipMoves(t *testing.T, st *state, label string) {
	t.Helper()
	off := *st
	off.fair.skip = false
	for _, lambda := range []float64{st.lambda, 0} {
		on := *st
		on.lambda, off.lambda = lambda, lambda
		for i := 0; i < st.n; i++ {
			from := st.assign[i]
			want, bestDelta := from, 0.0
			for c := 0; c < st.k; c++ {
				if c == from {
					continue
				}
				if d := on.moveDelta(i, from, c); d < bestDelta {
					want, bestDelta = c, d
				}
			}
			if got := off.bestMove(i, from); got != want {
				t.Fatalf("%s, λ=%v: row %d in cluster %d moves to %d without skipping, %d by moveDelta",
					label, lambda, i, from, got, want)
			}
			if got := on.bestMove(i, from); got != want {
				t.Fatalf("%s, λ=%v: row %d in cluster %d moves to %d with skipping, %d by moveDelta",
					label, lambda, i, from, got, want)
			}
		}
	}
}

// TestFairSkipBound holds the skip bound (fairStats, "Skip bound") to
// its contract on random small states — row weights, numeric
// sensitive attributes, attribute weights, empty and singleton
// clusters — before and after random moves: it never exceeds the float
// fairness change it bounds, and bestMove picks the same cluster with
// and without it, at λ = 0 too.
func TestFairSkipBound(t *testing.T) {
	rng := stats.NewRNG(31)
	tight, states := 0, 0
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 512)
		for b := range data {
			data[b] = byte(rng.Intn(256))
		}
		ds, rowW, cfg, err := decodeFitProblem(data)
		if err != nil {
			continue
		}
		n, k := ds.N(), cfg.K
		// Rows fill clusters 0..used−1, row 0 alone in the last of
		// them when used ≥ 2; clusters from used on start empty.
		used := 1 + rng.Intn(k)
		assign := make([]int, n)
		for i := range assign {
			if used > 1 {
				assign[i] = rng.Intn(used - 1)
			}
		}
		if used > 1 {
			assign[0] = used - 1
		}
		lambda := cfg.Lambda
		if cfg.AutoLambda {
			lambda = DefaultLambda(n, k)
		}
		st := newState(ds, &cfg, lambda, assign, rowW)
		if !st.fair.skip {
			t.Fatalf("trial %d: skip bound off", trial)
		}
		for step := 0; step <= 20; step++ {
			label := fmt.Sprintf("trial %d step %d", trial, step)
			tight += checkSkipBound(t, st, label)
			checkSkipMoves(t, st, label)
			states++
			if k == 1 {
				break
			}
			i := rng.Intn(n)
			from := st.assign[i]
			st.move(i, from, (from+1+rng.Intn(k-1))%k)
		}
	}
	if states < 1000 {
		t.Fatalf("only %d states checked", states)
	}
	if tight == 0 {
		t.Fatal("no bound came within 1e-9 of its value: the states never test the pad")
	}
	t.Logf("%d states, %d bounds within 1e-9 of their value", states, tight)
}

// TestFairSkipLanes holds bestMove's four-lane scan to checkSkipBound
// and checkSkipMoves at k = 4, 5 and 7, where the last block (based at
// k − 4) overlaps the one before it for k = 5 and 7, on random small
// states with rows in every cluster, before and after random moves. It
// requires rows whose cluster lies inside the overlap, so the lane of
// a row's own cluster is seen in both blocks.
func TestFairSkipLanes(t *testing.T) {
	rng := stats.NewRNG(33)
	for _, k := range []int{4, 5, 7} {
		states, overlap := 0, 0
		for trial := 0; states < 200; trial++ {
			data := make([]byte, 512)
			for b := range data {
				data[b] = byte(rng.Intn(256))
			}
			ds, rowW, cfg, err := decodeFitProblem(data)
			if err != nil || ds.N() < 2*k {
				continue
			}
			cfg.K = k
			n := ds.N()
			assign := make([]int, n)
			for i := range assign {
				assign[i] = i % k
			}
			rng.Shuffle(n, func(a, b int) { assign[a], assign[b] = assign[b], assign[a] })
			lambda := cfg.Lambda
			if cfg.AutoLambda {
				lambda = DefaultLambda(n, k)
			}
			st := newState(ds, &cfg, lambda, assign, rowW)
			for step := 0; step <= 10; step++ {
				label := fmt.Sprintf("k %d trial %d step %d", k, trial, step)
				checkSkipBound(t, st, label)
				checkSkipMoves(t, st, label)
				states++
				for _, c := range st.assign {
					// The last block starts at k−4 and the one before
					// it ends at (k−1)&^3 − 1: clusters in between lie
					// in both when k%4 ≠ 0.
					if k%4 != 0 && c >= k-4 && c < (k-1)&^3 {
						overlap++
					}
				}
				i := rng.Intn(n)
				from := st.assign[i]
				st.move(i, from, (from+1+rng.Intn(k-1))%k)
			}
		}
		if k%4 != 0 && overlap == 0 {
			t.Fatalf("k %d: no row sat in the overlap of the last two blocks", k)
		}
		t.Logf("k %d: %d states, %d row states inside the overlap", k, states, overlap)
	}
}

// TestFairSkipTie: a candidate whose bound can at best tie the current
// best is skipped, as `delta < bestDelta` would reject it. Row 0 sits
// alone in cluster 0 and cluster 2 is empty, so at λ = 0 moving it
// there changes nothing: its δ is exactly 0, the stay-put value, and
// so is the bound's.
func TestFairSkipTie(t *testing.T) {
	ds := testfix.Synth(3, 12, 2, 2, 0)
	assign := make([]int, ds.N())
	for i := 1; i < len(assign); i++ {
		assign[i] = 1
	}
	cfg := Config{K: 3}
	st := newState(ds, &cfg, 0, assign, nil)
	if got := st.bestMove(0, 0); got != 0 {
		t.Fatalf("row 0 moves to %d at λ = 0, want to stay in 0", got)
	}
	km, fair := &st.km, &st.fair
	if d := st.moveDelta(0, 0, 2); d != 0 {
		t.Fatalf("moving row 0 to the empty cluster changes the objective by %v, want a tie at 0", d)
	}
	dKM := km.OutDelta(0, 0) + km.InDelta(0, 2)
	dDevOut := fair.deviationWithDelta(km, 0, 0, -1) - fair.devCache[0]
	if low := dDevOut + fair.lowerBound(2, 0, km.Weight(0), fair.skipQuad(0)); !st.cannotWin(dKM, low, 0) {
		t.Fatalf("a candidate that can only tie (δ_KM %v, fairness bound %v) is not skipped", dKM, low)
	}
}
