package stats

//fairvet:floateq the d==best and row!=row comparisons ARE the determinism contract: exact ties break to the lowest index, pinned bit-for-bit by the kernel parity suites

import (
	"math"
	"sort"
)

// Nearest-centroid kernels. Two answer the same question — which
// centroid is nearest to x under squared Euclidean distance, ties to
// the lowest index — and every caller uses one of them:
//
//   - NearestCentroidScan, the exact SqDist scan in index order. It is
//     the assignment rule of every one-off caller (model.AssignDist,
//     core.Result.Predict, k-means initialization and full sweeps, the
//     streaming evaluate pass) and the oracle the pruned kernels are
//     tested and benchmarked against.
//   - CentroidIndex, the serving kernel: a per-centroid-set
//     sorted-neighbor index searched with fused scoring. (Lloyd sweeps
//     prune with Hamerly bounds instead; see internal/kmeans.)
//
// Fused scoring rewrites the squared distance as
//
//	d²(x, c) = ‖x‖² − 2·x·c + ‖c‖²
//
// so that, with ‖c‖² precomputed once per centroid set (CentroidNorms)
// and ‖x‖² once per row, scoring one candidate is a single dot product
// plus two adds — ~2·dim flops instead of the 3·dim of the
// subtract-square scan.
//
// # Tie-break and exactness contract
//
// CentroidIndex.Nearest is bit-identical to an unpruned fused scan in
// index order that replaces the incumbent only on a strict improvement
// — including duplicate centroids, ulp-near duplicates and queries on
// a centroid (pinned by TestCentroidIndexTransparent and
// TestCentroidIndexGrid). Its prune thresholds carry a relative slack
// (normPruneSlack) so that rounding can only ever make it prune LESS.
//
// Fused distance VALUES differ from SqDist by a few ulps (different
// rounding order), so the fused winner can in principle differ from
// the scan's winner when two non-identical centroids are equidistant
// to within that rounding noise; bit-identical duplicate centroids tie
// exactly under both formulas and resolve to the same (lowest) index.
// The indexed-vs-scan assignment parity is pinned across k/dim/seed
// grids by TestNearestCentroidMatchesNaiveScan.

// normPruneSlack inflates the right-hand side of the CentroidIndex
// break test so floating-point rounding can never prune a candidate
// that the exact comparison would keep. 1e-9 relative is ~6 orders of
// magnitude above the accumulated rounding of the few flops involved.
const normPruneSlack = 1 + 1e-9

// CentroidNorms returns the squared Euclidean norm ‖c‖² of every
// centroid — the per-centroid constant of the fused kernel. Callers
// compute it once per centroid set (per model install in serving, per
// frozen iteration in training), never per batch.
func CentroidNorms(centroids [][]float64) []float64 {
	norms := make([]float64, len(centroids))
	for c, cen := range centroids {
		norms[c] = Dot(cen, cen)
	}
	return norms
}

// CentroidCC2 returns the full k×k matrix of squared pairwise centroid
// distances — the per-model constant CentroidIndex sorts into its
// neighbor lists. Cost: O(k²·dim) once per centroid set (model
// install), k² floats of memory.
func CentroidCC2(centroids [][]float64) [][]float64 {
	k := len(centroids)
	cc2 := make([][]float64, k)
	flat := make([]float64, k*k)
	for i := range cc2 {
		cc2[i] = flat[i*k : (i+1)*k : (i+1)*k]
		for j := 0; j < i; j++ {
			d := SqDist(centroids[i], centroids[j])
			cc2[i][j] = d
			cc2[j][i] = d
		}
	}
	return cc2
}

// CentroidIndex is the serving-side pruning structure: per centroid,
// the other centroids sorted by ascending squared distance. Search
// walks the incumbent's neighbor list and stops at the first entry
// with d(best, c)² above the Elkan threshold 4·bestD — by the triangle
// inequality d(x, c) ≥ d(best, c) − d(x, best) > 2·√bestD − √bestD =
// √bestD, so that entry and (sorted order) every entry after it
// strictly loses without a dot product. Unlike a per-candidate test,
// the sorted break turns pruning into early termination: past the
// break point candidates cost literally nothing.
//
// Build cost is O(k²·(dim + log k)) once per centroid set (model
// install), ~2·k² words of memory — irrelevant next to training cost
// and amortized over every query the model ever serves. The walk pays
// for itself at every k (at k = 2 the lists are one entry long and the
// loop degenerates to the plain fused scan), so there is no small-k
// fallback and one exactness contract covers every deployment.
type CentroidIndex struct {
	// flat is a row-major copy of the centroids (k×dim): the walk
	// visits candidates in data-dependent order, and a contiguous
	// buffer turns each visit into one offset multiply instead of a
	// pointer chase through a slice-of-slices.
	flat  []float64
	k     int
	dim   int
	norms []float64
	// nbr[i][p] holds the p-th nearest other centroid of centroid i:
	// its squared distance and index, packed together so the walk
	// streams one array instead of two. Distance ties are ordered by
	// ascending index so the build is deterministic.
	nbr [][]nbrPair
}

// nbrPair is one sorted-neighbor entry: squared center-to-center
// distance and the neighbor's centroid index.
type nbrPair struct {
	d2 float64
	j  uint32
}

// NewCentroidIndex builds the sorted-neighbor index over a row-major
// copy of centroids; later mutation of the argument does not affect
// the index.
func NewCentroidIndex(centroids [][]float64) *CentroidIndex {
	k := len(centroids)
	ix := &CentroidIndex{
		k:     k,
		norms: CentroidNorms(centroids),
	}
	if k > 0 {
		ix.dim = len(centroids[0])
		ix.flat = make([]float64, 0, k*ix.dim)
		for _, c := range centroids {
			ix.flat = append(ix.flat, c...)
		}
	}
	if k == 0 {
		return ix
	}
	cc2 := CentroidCC2(centroids)
	flatNbr := make([]nbrPair, k*(k-1))
	ix.nbr = make([][]nbrPair, k)
	ord := make([]int, k-1)
	for i := 0; i < k; i++ {
		n := 0
		for j := 0; j < k; j++ {
			if j != i {
				ord[n] = j
				n++
			}
		}
		row := cc2[i]
		sort.Slice(ord, func(a, b int) bool {
			if row[ord[a]] != row[ord[b]] {
				return row[ord[a]] < row[ord[b]]
			}
			return ord[a] < ord[b]
		})
		lst := flatNbr[i*(k-1) : (i+1)*(k-1) : (i+1)*(k-1)]
		for p, j := range ord {
			lst[p] = nbrPair{d2: row[j], j: uint32(j)}
		}
		ix.nbr[i] = lst
	}
	return ix
}

// CentroidScratch is the per-goroutine visited bookkeeping of
// CentroidIndex.Nearest: an epoch-stamped mark per centroid, so
// clearing between queries is one counter increment, not a k-wide
// memset. Not safe for concurrent use — give each worker its own.
type CentroidScratch struct {
	visited []uint32
	epoch   uint32
}

// NewScratch returns search scratch sized for this index.
func (ix *CentroidIndex) NewScratch() *CentroidScratch {
	return &CentroidScratch{visited: make([]uint32, ix.k)}
}

// Nearest returns the index of the centroid nearest to x and its
// squared distance (the fused value, clamped at zero), walking sorted
// neighbor lists from the running incumbent. sc must come from
// NewScratch on this index; centroids must be non-empty.
//
// Exactness contract: bit-identical to the unpruned fused scan on
// every input. The walk evaluates candidates out of index order, so
// the incumbent is replaced on d < bestD OR d == bestD with a lower
// index — the order-independent statement of the scan's
// strict-improvement rule — and the break threshold carries slack
// margins (multiplicative normPruneSlack plus an additive floor
// relative to ‖x‖² + ‖c_best‖²), so rounding can only ever terminate
// LATER: a candidate is skipped only when its distance provably
// strictly exceeds the incumbent, which rules out both a win and a
// lower-index tie. Duplicate centroids sit at neighbor distance 0,
// first in the sorted list, and are always evaluated; on-centroid
// queries (bestD ≈ 0) keep every centroid within rounding range
// un-pruned via the additive floor.
//
//fairvet:hotpath
func (ix *CentroidIndex) Nearest(x []float64, sc *CentroidScratch) (int, float64) {
	flat, dim, norms := ix.flat, ix.dim, ix.norms
	sc.epoch++
	if sc.epoch == 0 { // uint32 wrap: old marks would alias the new epoch
		clear(sc.visited)
		sc.epoch = 1
	}
	if dim == 8 {
		return ix.nearest8(x, sc)
	}
	xn := Dot(x, x)
	best := 0
	bestD := xn - 2*Dot(x, flat[:dim]) + norms[0]
	visited, epoch := sc.visited, sc.epoch
	visited[0] = epoch
	// First pass, over centroid 0's own list: nothing else is visited
	// yet (a list never contains its owner), so the visited READ is
	// skipped — most queries never leave this loop.
	thresh := 4*bestD*normPruneSlack + (normPruneSlack-1)*(xn+norms[0])
	for _, nb := range ix.nbr[0] {
		if nb.d2 > thresh {
			break // sorted: every remaining candidate strictly loses
		}
		j := int(nb.j)
		visited[j] = epoch
		if d := xn - 2*Dot(x, flat[j*dim:(j+1)*dim]) + norms[j]; d < bestD {
			best, bestD = j, d
			goto restart
		}
	}
	goto done
	// Each restart strictly improves (bestD, best) lexicographically,
	// so the walk terminates; visited marks keep every centroid scored
	// at most once per query.
restart:
	thresh = 4*bestD*normPruneSlack + (normPruneSlack-1)*(xn+norms[best])
	for _, nb := range ix.nbr[best] {
		if nb.d2 > thresh {
			break // sorted: every remaining candidate strictly loses
		}
		j := int(nb.j)
		if visited[j] == epoch {
			continue
		}
		visited[j] = epoch
		if d := xn - 2*Dot(x, flat[j*dim:(j+1)*dim]) + norms[j]; d < bestD || (d == bestD && j < best) {
			best, bestD = j, d
			goto restart
		}
	}
done:
	if bestD < 0 {
		bestD = 0
	}
	return best, bestD
}

// nearest8 is the dim-8 specialization of the indexed walk — the same
// control flow with the candidate evaluation expanded in place. The
// lane products, merge order and leading zero seeds are copied from
// dot8 verbatim, so every candidate distance is bit-identical to the
// Dot-based form; dim 8 gets its own body because the walk's
// data-dependent call sites leave the dot behind an opaque call, which
// is a measurable fraction of a candidate's cost at this width (the
// same reason dot8/sqDist8 exist).
//
//fairvet:hotpath
func (ix *CentroidIndex) nearest8(x []float64, sc *CentroidScratch) (int, float64) {
	flat, norms := ix.flat, ix.norms
	x = x[:8:8]
	s0 := 0 + x[0]*x[0] + x[4]*x[4]
	s1 := 0 + x[1]*x[1] + x[5]*x[5]
	s2 := 0 + x[2]*x[2] + x[6]*x[6]
	s3 := 0 + x[3]*x[3] + x[7]*x[7]
	xn := (s0 + s2) + (s1 + s3)
	best := 0
	bestD := xn - 2*dot8(x, flat[:8]) + norms[0]
	visited, epoch := sc.visited, sc.epoch
	visited[0] = epoch
	thresh := 4*bestD*normPruneSlack + (normPruneSlack-1)*(xn+norms[0])
	for _, nb := range ix.nbr[0] {
		if nb.d2 > thresh {
			break
		}
		j := int(nb.j)
		visited[j] = epoch
		c := flat[j*8 : j*8+8 : j*8+8]
		t0 := 0 + x[0]*c[0] + x[4]*c[4]
		t1 := 0 + x[1]*c[1] + x[5]*c[5]
		t2 := 0 + x[2]*c[2] + x[6]*c[6]
		t3 := 0 + x[3]*c[3] + x[7]*c[7]
		if d := xn - 2*((t0+t2)+(t1+t3)) + norms[j]; d < bestD {
			best, bestD = j, d
			goto restart
		}
	}
	goto done
restart:
	thresh = 4*bestD*normPruneSlack + (normPruneSlack-1)*(xn+norms[best])
	for _, nb := range ix.nbr[best] {
		if nb.d2 > thresh {
			break
		}
		j := int(nb.j)
		if visited[j] == epoch {
			continue
		}
		visited[j] = epoch
		c := flat[j*8 : j*8+8 : j*8+8]
		t0 := 0 + x[0]*c[0] + x[4]*c[4]
		t1 := 0 + x[1]*c[1] + x[5]*c[5]
		t2 := 0 + x[2]*c[2] + x[6]*c[6]
		t3 := 0 + x[3]*c[3] + x[7]*c[7]
		if d := xn - 2*((t0+t2)+(t1+t3)) + norms[j]; d < bestD || (d == bestD && j < best) {
			best, bestD = j, d
			goto restart
		}
	}
done:
	if bestD < 0 {
		bestD = 0
	}
	return best, bestD
}

// NearestCentroidScan returns the index of the centroid nearest to x
// under squared Euclidean distance, and that distance: a plain SqDist
// scan in index order from bestD = +Inf, replacing the incumbent only
// on a strict improvement. Exact ties therefore keep the lowest index,
// a NaN distance never wins, and a row whose distances all overflow to
// +Inf (or an empty centroid set) returns index 0 with distance +Inf.
// It is the deployment rule of core.Result.Predict and
// model.AssignDist, and the reference the pruned kernels are tested
// and benchmarked against.
func NearestCentroidScan(x []float64, centroids [][]float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for c, cen := range centroids {
		if d := SqDist(x, cen); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}
