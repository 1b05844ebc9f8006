package stats

import (
	"fmt"
	"math"
	"testing"
)

// genRows builds deterministic pseudo-random rows without consuming an
// RNG (fixed forever, like benchVectors).
func genRows(seed, n, dim int) [][]float64 {
	rows := make([][]float64, n)
	for r := range rows {
		v := make([]float64, dim)
		for i := range v {
			v[i] = float64(((r*8191+i*127+seed*31)*2654435761)%2000)/1000 - 1
		}
		rows[r] = v
	}
	return rows
}

// unprunedFused is the fused scan with no pruning — the reference
// CentroidIndex.Nearest must match bit-for-bit on EVERY input.
func unprunedFused(x []float64, centroids [][]float64, norms []float64) (int, float64) {
	xn := Dot(x, x)
	best := 0
	bestD := xn - 2*Dot(x, centroids[0]) + norms[0]
	for c := 1; c < len(centroids); c++ {
		if d := xn - 2*Dot(x, centroids[c]) + norms[c]; d < bestD {
			best, bestD = c, d
		}
	}
	if bestD < 0 {
		bestD = 0
	}
	return best, bestD
}

// TestNearestCentroidMatchesNaiveScan pins indexed-vs-naive assignment
// parity across a k × dim × seed grid: the serving kernel
// (CentroidIndex.Nearest, fused scoring) must pick the same centroid
// as the SqDist reference scan, and its distance must agree to
// rounding noise.
func TestNearestCentroidMatchesNaiveScan(t *testing.T) {
	for _, k := range []int{1, 2, 5, 15, 50, 150} {
		for _, dim := range []int{1, 2, 3, 4, 7, 8, 16, 64} {
			for seed := 0; seed < 3; seed++ {
				t.Run(fmt.Sprintf("k%d_d%d_s%d", k, dim, seed), func(t *testing.T) {
					centroids := genRows(seed, k, dim)
					ix := NewCentroidIndex(centroids)
					sc := ix.NewScratch()
					rows := genRows(seed+100, 200, dim)
					for i, x := range rows {
						wantC, wantD := NearestCentroidScan(x, centroids)
						gotC, gotD := ix.Nearest(x, sc)
						scale := 1 + math.Abs(wantD)
						if gotC != wantC {
							// The discretized synthetic grid produces rows
							// exactly equidistant (in real arithmetic) to two
							// distinct centroids; the two formulas may round
							// such a tie apart and crown different winners.
							// That is only acceptable when the naive metric
							// itself calls it a tie to within rounding noise.
							alt := SqDist(x, centroids[gotC])
							if math.Abs(alt-wantD) > 1e-12*scale {
								t.Fatalf("row %d: indexed picked %d (naive d %v), naive scan %d (d %v) — not a tie", i, gotC, alt, wantC, wantD)
							}
						}
						if math.Abs(gotD-wantD) > 1e-9*scale {
							t.Fatalf("row %d: indexed dist %v vs naive %v", i, gotD, wantD)
						}
					}
				})
			}
		}
	}
}

// TestCentroidIndexTransparent pins the exactness contract of the
// sorted-neighbor search: on every input CentroidIndex.Nearest must be
// bit-identical to the unpruned fused scan — duplicate centroids,
// near-duplicate centroids a few ulps apart, the origin, and queries
// sitting exactly on a (duplicated) centroid, where bestD = 0 makes
// the break threshold lean entirely on its additive rounding floor.
// Centroid sets run from k = 4 to k = 150, so the walk meets both
// short and long neighbor lists, and scratch is reused across queries
// (the epoch bookkeeping under test).
func TestCentroidIndexTransparent(t *testing.T) {
	nearDup := Clone([]float64{0.1, 0.2, 0.3})
	nearDup[2] = math.Nextafter(nearDup[2], 1) // 1 ulp off centroid 0
	dupFar := [][]float64{{0.1, 0.2, 0.3}, nearDup, {5, 5, 5}, {0.1, 0.2, 0.3}}
	// The same ulp-near duplicates embedded in a larger set, so the
	// additive floor is load-bearing on a walk that can restart too.
	bigDup := append(genRows(3, 20, 3), dupFar...)
	cases := [][][]float64{
		genRows(1, 40, 8),
		genRows(2, 150, 16),
		{{0, 0, 0}, {1, 0, 0}, {1, 0, 0}, {0, 1, 0}, {-3, 4, 0}}, // duplicates
		dupFar, // ulp-near duplicates, k = 4
		bigDup, // ulp-near duplicates, k = 24
	}
	for ci, centroids := range cases {
		ix := NewCentroidIndex(centroids)
		sc := ix.NewScratch()
		norms := CentroidNorms(centroids)
		dim := len(centroids[0])
		rows := genRows(ci+7, 300, dim)
		rows = append(rows, make([]float64, dim)) // the origin
		for _, c := range centroids {
			rows = append(rows, Clone(c)) // on every centroid, dups included
		}
		for i, x := range rows {
			wc, wd := unprunedFused(x, centroids, norms)
			gc, gd := ix.Nearest(x, sc)
			if gc != wc || math.Float64bits(gd) != math.Float64bits(wd) {
				t.Fatalf("case %d row %d: indexed (%d,%v) vs reference (%d,%v)", ci, i, gc, gd, wc, wd)
			}
		}
	}
}

// TestCentroidIndexGrid is the indexed-search analogue of the
// fused-vs-naive grid: across k × dim × seeds the walk must agree with
// the unpruned fused scan bit for bit (same kernel arithmetic, so
// exact equality — not just tie-tolerant). dim 8 rides its dedicated
// walk (nearest8), every other dim the generic one; both must meet the
// same contract.
func TestCentroidIndexGrid(t *testing.T) {
	for _, k := range []int{1, 2, 5, 15, 16, 17, 50, 150} {
		for _, dim := range []int{1, 2, 4, 8, 16} {
			centroids := genRows(k+dim, k, dim)
			ix := NewCentroidIndex(centroids)
			sc := ix.NewScratch()
			norms := CentroidNorms(centroids)
			rows := genRows(k*31+dim, 150, dim)
			for i, x := range rows {
				wc, wd := unprunedFused(x, centroids, norms)
				gc, gd := ix.Nearest(x, sc)
				if gc != wc || math.Float64bits(gd) != math.Float64bits(wd) {
					t.Fatalf("k%d d%d row %d: indexed (%d,%v) vs reference (%d,%v)", k, dim, i, gc, gd, wc, wd)
				}
			}
		}
	}
}

// TestCentroidCC2 pins the matrix shape and symmetry: zero diagonal,
// cc2[i][j] == SqDist(c_i, c_j) exactly, symmetric by construction.
func TestCentroidCC2(t *testing.T) {
	centroids := genRows(5, 20, 6)
	cc2 := CentroidCC2(centroids)
	if len(cc2) != len(centroids) {
		t.Fatalf("cc2 has %d rows, want %d", len(cc2), len(centroids))
	}
	for i := range cc2 {
		if len(cc2[i]) != len(centroids) {
			t.Fatalf("cc2[%d] has %d cols, want %d", i, len(cc2[i]), len(centroids))
		}
		if cc2[i][i] != 0 {
			t.Fatalf("cc2[%d][%d] = %v, want 0", i, i, cc2[i][i])
		}
		for j := range cc2[i] {
			if want := SqDist(centroids[i], centroids[j]); i != j && cc2[i][j] != want {
				t.Fatalf("cc2[%d][%d] = %v, want %v", i, j, cc2[i][j], want)
			}
			if cc2[i][j] != cc2[j][i] {
				t.Fatalf("cc2 not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

// TestNearestCentroidTies: duplicate centroids and exactly equidistant
// rows must resolve to the lowest centroid index under both the
// indexed kernel and the naive scan.
func TestNearestCentroidTies(t *testing.T) {
	// both runs x through CentroidIndex.Nearest and NearestCentroidScan.
	both := func(x []float64, centroids [][]float64) (ic int, id float64, sc int, sd float64) {
		ix := NewCentroidIndex(centroids)
		ic, id = ix.Nearest(x, ix.NewScratch())
		sc, sd = NearestCentroidScan(x, centroids)
		return ic, id, sc, sd
	}

	// Duplicate centroids: indexes 1 and 3 are bit-identical; both
	// formulas tie exactly, and the first must win.
	centroids := [][]float64{{5, 5}, {1, 2}, {9, 9}, {1, 2}}
	if ic, _, sc, _ := both([]float64{1.25, 2.5}, centroids); ic != 1 || sc != 1 {
		t.Fatalf("duplicate centroids: indexed %d, naive %d, want 1", ic, sc)
	}

	// Exactly equidistant row (all coordinates exactly representable):
	// the origin is distance 1 from both unit centroids; index 0 wins.
	eq := [][]float64{{1, 0}, {0, 1}, {3, 4}}
	if ic, _, sc, _ := both([]float64{0, 0}, eq); ic != 0 || sc != 0 {
		t.Fatalf("equidistant row: indexed %d, naive %d, want 0", ic, sc)
	}

	// A row ON a duplicated centroid: distance 0 twice, lowest index
	// wins and the (clamped) distance is exactly zero.
	if ic, id, sc, sd := both([]float64{1, 2}, centroids); ic != 1 || id != 0 || sc != 1 || sd != 0 {
		t.Fatalf("on-centroid tie: indexed (%d,%v), naive (%d,%v), want (1,0)", ic, id, sc, sd)
	}
}

// TestNearestCentroidScan pins the scan's edge rules, which every
// caller of the deployment rule inherits: it starts from +Inf and
// replaces the incumbent only on a strict improvement.
func TestNearestCentroidScan(t *testing.T) {
	// A NaN distance never wins, wherever it sits.
	nan := math.NaN()
	for _, tc := range []struct {
		centroids [][]float64
		want      int
	}{
		{[][]float64{{nan, 0}, {3, 4}, {6, 8}}, 1},
		{[][]float64{{6, 8}, {nan, 0}, {3, 4}}, 2},
	} {
		if c, d := NearestCentroidScan([]float64{0, 0}, tc.centroids); c != tc.want || d != 25 {
			t.Errorf("NaN centroid in %v: got (%d,%v), want (%d,25)", tc.centroids, c, d, tc.want)
		}
	}

	// Every distance overflows to +Inf: index 0 keeps the row.
	huge := []float64{1e200, -1e200}
	if c, d := NearestCentroidScan(huge, [][]float64{{1, 1}, {-1e200, 1e200}, {0, 0}}); c != 0 || !math.IsInf(d, 1) {
		t.Errorf("all-overflow row: got (%d,%v), want (0,+Inf)", c, d)
	}

	// Exact ties go to the lowest index, even after a worse start.
	if c, d := NearestCentroidScan([]float64{0, 0}, [][]float64{{3, 4}, {0, 1}, {1, 0}, {0, -1}}); c != 1 || d != 1 {
		t.Errorf("exact tie: got (%d,%v), want (1,1)", c, d)
	}
}

// genericDot and genericSqDist are the 4-wide unrolled forms without
// the small-dim fast paths — the arithmetic the fast paths must
// reproduce bit-for-bit.
func genericDot(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i <= len(a)-4; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s2) + (s1 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

func genericSqDist(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i <= len(a)-4; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := (s0 + s2) + (s1 + s3)
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// TestSmallDimFastPathBitIdentity: every Dot/SqDist fast path must be
// bit-identical to the generic unrolled kernel — including signed-zero
// products (negative value × exact zero), which the golden-trajectory
// contract makes load-bearing.
func TestSmallDimFastPathBitIdentity(t *testing.T) {
	for _, dim := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16} {
		xs := genRows(11, 64, dim)
		ys := genRows(12, 64, dim)
		// Inject exact zeros and sign flips to force ±0 products.
		for r := range xs {
			for i := range xs[r] {
				switch (r + i) % 5 {
				case 0:
					xs[r][i] = 0
				case 1:
					ys[r][i] = 0
				case 2:
					xs[r][i] = -xs[r][i]
				}
			}
		}
		for r := range xs {
			a, b := xs[r], ys[r]
			if got, want := Dot(a, b), genericDot(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d row %d: Dot bits %x vs generic %x", dim, r, math.Float64bits(got), math.Float64bits(want))
			}
			if got, want := SqDist(a, b), genericSqDist(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d row %d: SqDist bits %x vs generic %x", dim, r, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	// All-negative-zero products: the adversarial case for dot8's lane
	// seeds (0 + -0 must stay +0, exactly like the generic accumulator).
	neg := make([]float64, 8)
	zero := make([]float64, 8)
	for i := range neg {
		neg[i] = -1
	}
	if got, want := Dot(neg, zero), genericDot(neg, zero); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("all -0 lanes: Dot bits %x vs generic %x", math.Float64bits(got), math.Float64bits(want))
	}
}
