package kmeans

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// scratchSSE is the weighted K-Means term of assign over the rows not
// excluded, computed from scratch with weightedCentroids and
// WeightedSSE; skip < 0 excludes nothing.
func scratchSSE(x [][]float64, w []float64, assign []int, k, skip int) float64 {
	var sx [][]float64
	var sw []float64
	var sa []int
	for i := range x {
		if i == skip {
			continue
		}
		sx = append(sx, x[i])
		sw = append(sw, w[i])
		sa = append(sa, assign[i])
	}
	return WeightedSSE(sx, sw, sa, weightedCentroids(sx, sw, sa, k))
}

func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// TestStatsWeightedMoves drives Stats through a random sequence of
// moves of fractionally weighted rows, empty and singleton clusters
// included, and checks after each one the out/in deltas, the SSE and
// the centroids against from-scratch WeightedSSE and weightedCentroids,
// the deltas of a frozen copy against the live ones, and InDelta4
// against four InDelta calls, bit for bit.
func TestStatsWeightedMoves(t *testing.T) {
	const n, dim, k = 30, 3, 5
	rng := stats.NewRNG(5)
	x := make([][]float64, n)
	w := make([]float64, n)
	assign := make([]int, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = rng.Gaussian(float64(i%3)*2, 1)
		}
		w[i] = 0.25 + 3*rng.Float64()
		assign[i] = rng.Intn(k - 1) // cluster k-1 starts empty
	}
	s := NewStats(x, w, k, assign)
	fz := s.NewFrozen()
	for step := 0; step < 300; step++ {
		i := rng.Intn(n)
		from, to := assign[i], rng.Intn(k)
		if to == from {
			continue
		}
		before := scratchSSE(x, w, assign, k, -1)
		without := scratchSSE(x, w, assign, k, i)
		out, in := s.OutDelta(i, from), s.InDelta(i, to)
		if !closeRel(out, without-before) {
			t.Fatalf("step %d: OutDelta(%d, %d) = %v, from scratch %v", step, i, from, out, without-before)
		}
		s.FreezeInto(&fz)
		if fz.OutDelta(i, from) != out || fz.InDelta(i, to) != in {
			t.Fatalf("step %d: frozen deltas differ from live ones", step)
		}
		for c := 0; c+4 <= k; c++ {
			var live, frozen [4]float64
			live[0], live[1], live[2], live[3] = s.InDelta4(i, c)
			frozen[0], frozen[1], frozen[2], frozen[3] = fz.InDelta4(i, c)
			for b := range live {
				want := math.Float64bits(s.InDelta(i, c+b))
				if math.Float64bits(live[b]) != want || math.Float64bits(frozen[b]) != want {
					t.Fatalf("step %d: InDelta4(%d, %d)[%d] = %v live, %v frozen; InDelta %v",
						step, i, c, b, live[b], frozen[b], s.InDelta(i, c+b))
				}
			}
		}

		s.Move(i, from, to)
		assign[i] = to
		after := scratchSSE(x, w, assign, k, -1)
		if !closeRel(in, after-without) {
			t.Fatalf("step %d: InDelta(%d, %d) = %v, from scratch %v", step, i, to, in, after-without)
		}
		if got := s.SSE(); !closeRel(got, after) {
			t.Fatalf("step %d: SSE = %v, from scratch %v", step, got, after)
		}
		want := weightedCentroids(x, w, assign, k)
		for c, cen := range s.Centroids() {
			for j, v := range cen {
				if !closeRel(v, want[c][j]) {
					t.Fatalf("step %d: centroid %d[%d] = %v, from scratch %v", step, c, j, v, want[c][j])
				}
			}
		}
	}
}
