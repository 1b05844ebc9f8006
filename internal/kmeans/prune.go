package kmeans

import (
	"math"
	"sync/atomic"

	"repro/internal/stats"
)

// Hamerly-style triangle-inequality pruning for Lloyd sweeps.
//
// The full Lloyd scoring step asks, for every row, "which of the k
// frozen centroids is nearest?" — an O(k·dim) scan. After the first
// few iterations most rows never change cluster, and pruning proves
// that cheaply: the pruner maintains, per row i with current
// assignment a,
//
//	u[i] ≥ d(x_i, c_a)            (upper bound, Euclidean distance)
//	l[i] ≤ min_{c≠a} d(x_i, c)    (lower bound on every OTHER centroid)
//
// plus, per centroid, the separation s(c) = ½·min_{c'≠c} d(c, c').
// If u[i] < l[i], every other centroid is strictly farther than the
// current one; if u[i] < s(a), the triangle inequality gives
// d(x_i, c) ≥ 2·s(a) − u[i] > u[i] ≥ d(x_i, c_a) for every c ≠ a
// (Hamerly 2010). Either way the scan is skipped and the assignment
// provably unchanged. When the test fails on the stale bound, u is
// first tightened to the exact current distance and the test retried;
// only rows that still fail fall back to the full scan.
//
// After each apply step, centroids move: Freeze updates the bounds
// from the per-centroid drift δ(c) = d(c_old, c_new) — u[i] grows by
// δ(a), l[i] shrinks by the largest drift among the OTHER centroids
// (max drift overall, or the second-largest when the argmax is a
// itself) — which preserves both invariants by the triangle
// inequality.
//
// # Exactness contract
//
// Pruned Lloyd is bit-identical to the naive scan — assignments
// (including ties), iteration counts and objective bits — with or
// without row weights (scoring never reads them) and for every
// Parallelism setting:
//
//   - The prune tests are STRICT (u < bound), so they only ever fire
//     when the current centroid wins by a margin; an exact tie with a
//     lower-indexed duplicate centroid fails the test (s(a) = 0,
//     l ≤ u) and degrades to the full scan, which applies the
//     sequential lowest-index rule verbatim via exact stats.SqDist —
//     the same flops in the same order as the naive path.
//   - Every bound update is padded OUTWARD (prunePad relative to the
//     magnitudes involved, ~4 orders above the rounding of the few
//     flops per update), so floating-point rounding can weaken a
//     bound but never tighten it past the true distance: rounding can
//     only make the pruner scan MORE, never let it skip a row the
//     exact comparison would rescan.
//   - Per-row state (u, l) is read and written only while scoring row
//     i, and frozen-sweep workers own disjoint row ranges, so the
//     pruner is race-free and bit-deterministic for every worker
//     count; shared per-centroid state (sep, drift) is written only
//     inside Freeze, before workers start.
//
// prune_test.go pins all of this against Run/RunWeighted with
// Config.FullScan set, plus the bound invariants after every
// iteration.

// prunePad is the relative outward padding applied to every bound
// update, and the margin by which a prune decision therefore
// overshoots. Each update is a handful of IEEE-754 ops (≤ ~1e-15
// accumulated relative error); 1e-12 dwarfs that while costing
// nothing measurable in prune rate.
const prunePad = 1e-12

// padUp returns v pushed up by prunePad relative to scale (the sum of
// magnitudes entering the computation of v, so cancellation cannot
// shrink the pad below the true rounding error). Infinities pass
// through untouched (±Inf ± Inf·ε would be NaN).
func padUp(v, scale float64) float64 {
	if math.IsInf(v, 0) {
		return v
	}
	return v + prunePad*scale
}

// padDown is padUp's mirror for lower bounds.
func padDown(v, scale float64) float64 {
	if math.IsInf(v, 0) {
		return v
	}
	return v - prunePad*scale
}

// pruner carries the Hamerly bound state for one Lloyd run. It is
// created per Run/RunWeighted call (bounds are meaningless across
// datasets) and threaded through the objective's Freeze/BestMove.
type pruner struct {
	features [][]float64
	u        []float64 // upper bound on d(x_i, current centroid)
	l        []float64 // lower bound on d(x_i, every other centroid)
	sep      []float64 // ½ · distance to each centroid's nearest peer
	drift    []float64 // per-centroid movement at the last Freeze
	prev     [][]float64
	scans    atomic.Int64 // full k-way scans performed (telemetry/tests)
}

// newPruner returns a pruner with vacuous bounds: the first sweep
// tightens u per row and full-scans whatever the separation test
// cannot already prove.
func newPruner(features [][]float64) *pruner {
	n := len(features)
	p := &pruner{
		features: features,
		u:        make([]float64, n),
		l:        make([]float64, n),
	}
	for i := range p.u {
		p.u[i] = math.Inf(1)
		p.l[i] = math.Inf(-1)
	}
	return p
}

// refresh is called from Freeze, after the iteration's centroids are
// recomputed and before any scoring: it derives centroid separations
// for the new set and loosens every row's bounds by the centroid
// drift since the previous set. assign must be the live assignment
// the bounds refer to. Single-threaded by construction (Freeze runs
// before the sweep fans out).
func (p *pruner) refresh(frozen [][]float64, assign []int) {
	k := len(frozen)
	if p.sep == nil {
		p.sep = make([]float64, k)
		p.drift = make([]float64, k)
	}
	for c := range frozen {
		mind := math.Inf(1)
		for c2 := range frozen {
			if c2 == c {
				continue
			}
			if d := stats.Dist(frozen[c], frozen[c2]); d < mind {
				mind = d
			}
		}
		p.sep[c] = padDown(0.5*mind, mind) // k = 1: +Inf passes through
	}

	if p.prev != nil {
		// Per-centroid drift, padded up so each is a true upper bound
		// on how far that centroid moved.
		var d1, d2 float64 // largest and second-largest drift
		arg1 := -1
		for c := range frozen {
			d := stats.Dist(p.prev[c], frozen[c])
			d = padUp(d, d)
			p.drift[c] = d
			if d > d1 {
				d1, d2, arg1 = d, d1, c
			} else if d > d2 {
				d2 = d
			}
		}
		for i, a := range assign {
			u := p.u[i] + p.drift[a]
			p.u[i] = padUp(u, u)
			dmax := d1
			if arg1 == a {
				dmax = d2 // the max drifter is the row's own centroid
			}
			p.l[i] = padDown(p.l[i]-dmax, math.Abs(p.l[i])+dmax)
		}
	}
	// Freeze allocates a fresh centroid set every iteration, so holding
	// the reference (no copy) is safe.
	p.prev = frozen
}

// bestMove returns the index of the frozen centroid nearest to row i
// — exactly stats.NearestCentroidScan(features[i], frozen), but
// skipping the k-way scan whenever the bounds prove the current
// assignment a still wins strictly.
//
//fairvet:hotpath
func (p *pruner) bestMove(i, a int, frozen [][]float64) int {
	m := p.l[i]
	if s := p.sep[a]; s > m {
		m = s
	}
	if p.u[i] < m {
		return a // bound test passed on the stale upper bound
	}
	x := p.features[i]
	ud := math.Sqrt(stats.SqDist(x, frozen[a]))
	p.u[i] = padUp(ud, ud)
	if p.u[i] < m {
		return a // passed after tightening u to the exact distance
	}

	// Full scan: the naive sequential rule verbatim (strict <, lowest
	// index wins ties), tracking the runner-up distance to reseed l.
	p.scans.Add(1)
	best, bestD := 0, math.Inf(1)
	second := math.Inf(1)
	for c, cen := range frozen {
		d := stats.SqDist(x, cen)
		if d < bestD {
			best, bestD, second = c, d, bestD
		} else if d < second {
			second = d
		}
	}
	ub := math.Sqrt(bestD)
	p.u[i] = padUp(ub, ub)
	lb := math.Sqrt(second) // k = 1: +Inf, passes through padDown
	p.l[i] = padDown(lb, lb)
	return best
}

// Scans reports how many full k-way scans the pruner has performed —
// the denominator of the pruning win. Exposed for tests and the
// experiment harness.
func (p *pruner) Scans() int64 { return p.scans.Load() }
