package kmeans

import "repro/internal/stats"

// Stats holds the sufficient statistics of the K-Means term
// Σ_C Σ_{x∈C} w·‖x − μ_C‖² over a fixed set of weighted rows, so one
// row's move is scored and applied in O(dim) instead of rescanning
// cluster members. FairKM (internal/core) and ZGYA (internal/zgya)
// both add a fairness penalty to this same term, and both score and
// apply its moves through one Stats.
//
// Per cluster c it tracks:
//   - Counts[c]: the row count, for the structural emptiness and
//     singleton guards;
//   - Mass[c]: the weighted mass Σ_{i∈c} w_i, used by all arithmetic;
//   - sums[c]: the feature sums Σ w·x;
//   - the cached mean μ_c = sums[c]·(1/Mass[c]), refreshed by every
//     move that changes the cluster, which the deltas and centroids
//     read;
//   - ssqs[c]: Σ w·‖x‖², giving SSE_c = ssqs[c] − ‖sums[c]‖²/Mass[c].
//
// Weights nil means unit weights. Every expression is arranged so that
// a unit weight is an IEEE-754 no-op: with w = 1 the deltas
// −m·w/(m−w)·‖x−μ‖² and m·w/(m+w)·‖x−μ‖² and the cached means round
// exactly as the count-based m/(m∓1)·‖x − Σx·(1/m)‖², so unweighted
// trajectories are bit-identical to a kernel that keeps counts only.
//
// A frozen copy (NewFrozen, FreezeInto) holds Counts, Mass and the
// cached means and shares the rows and weights: that is everything
// the deltas read, so it scores moves concurrently while the live
// Stats keeps changing. Its sums and ssqs stay nil.
type Stats struct {
	x   [][]float64 // rows
	w   []float64   // per-row weights; nil means unit weights
	dim int

	Counts []int     // per-cluster row counts (structural guards only)
	Mass   []float64 // per-cluster weighted masses (all arithmetic)
	sums   [][]float64
	mu     []float64 // [c·dim+j] cached means sums[c][j]·(1/Mass[c])
	ssqs   []float64
}

// NewStats builds the statistics of the k-cluster assignment of the
// rows x; w carries per-row weights, nil meaning unit weights.
func NewStats(x [][]float64, w []float64, k int, assign []int) Stats {
	dim := len(x[0])
	s := Stats{
		x:      x,
		w:      w,
		dim:    dim,
		Counts: make([]int, k),
		Mass:   make([]float64, k),
		sums:   make([][]float64, k),
		mu:     make([]float64, k*dim),
		ssqs:   make([]float64, k),
	}
	for c := range s.sums {
		s.sums[c] = make([]float64, dim)
	}
	for i, c := range assign {
		s.add(i, c, +1)
	}
	for c := range s.sums {
		s.refresh(c)
	}
	return s
}

// Weight returns row i's weight (1 under unit weights).
func (s *Stats) Weight(i int) float64 {
	if s.w == nil {
		return 1
	}
	return s.w[i]
}

// add adds (sign=+1) or subtracts (sign=-1) row i's contribution to
// cluster c, leaving the cached mean to refresh. Negating the weight
// is exact, so subtracting through sw = −w rounds exactly as
// subtracting w would.
func (s *Stats) add(i, c, sign int) {
	sw := float64(sign) * s.Weight(i)
	x := s.x[i]
	s.Counts[c] += sign
	s.Mass[c] += sw
	stats.AddScaledTo(s.sums[c], x, sw)
	s.ssqs[c] += sw * stats.Dot(x, x)
}

// refresh recomputes cluster c's cached mean from its sums; an empty
// cluster keeps a stale one that nothing reads.
func (s *Stats) refresh(c int) {
	if s.Counts[c] == 0 {
		return
	}
	inv := 1.0 / s.Mass[c]
	mu := s.mean(c)
	for j, v := range s.sums[c] {
		mu[j] = v * inv
	}
}

// Move transfers row i from cluster from to cluster to and refreshes
// both cached means.
func (s *Stats) Move(i, from, to int) {
	s.add(i, from, -1)
	s.add(i, to, +1)
	s.refresh(from)
	s.refresh(to)
}

// mean returns cluster c's cached mean.
func (s *Stats) mean(c int) []float64 {
	return s.mu[c*s.dim : (c+1)*s.dim]
}

// OutDelta returns the change in the K-Means term from removing row i
// (mass w) from its cluster c: −m·w/(m−w)·‖x−μ_c‖², 0 when c holds
// only row i (Eq. 12 of the FairKM paper in closed form).
//
//fairvet:hotpath
func (s *Stats) OutDelta(i, c int) float64 {
	if s.Counts[c] <= 1 {
		return 0
	}
	m := s.Mass[c]
	w := s.Weight(i)
	return -m * w / (m - w) * s.distToMean(i, c)
}

// InDelta returns the change in the K-Means term from adding row i
// (mass w) to cluster c: m·w/(m+w)·‖x−μ_c‖², 0 for an empty cluster
// (Eq. 14 in closed form).
//
//fairvet:hotpath
func (s *Stats) InDelta(i, c int) float64 {
	if s.Counts[c] == 0 {
		return 0
	}
	m := s.Mass[c]
	w := s.Weight(i)
	return m * w / (m + w) * s.distToMean(i, c)
}

// distToMean returns ‖x_i − μ_c‖² against the cached mean, summed in
// index order (stats.SqDist's four-lane sum would round differently).
//
//fairvet:hotpath
func (s *Stats) distToMean(i, c int) float64 {
	x := s.x[i]
	mu := s.mean(c)[:len(x)] // one bounds check instead of one per feature
	d2 := 0.0
	for j, xj := range x {
		d := xj - mu[j]
		d2 += d * d
	}
	return d2
}

// SSE returns the K-Means term Σ_c (ssqs[c] − ‖sums[c]‖²/Mass[c]),
// each cluster's share clamped at 0 against cancellation.
func (s *Stats) SSE() float64 {
	total := 0.0
	for c, n := range s.Counts {
		if n == 0 {
			continue
		}
		sse := s.ssqs[c] - stats.Dot(s.sums[c], s.sums[c])/s.Mass[c]
		if sse < 0 {
			sse = 0 // floating-point cancellation guard
		}
		total += sse
	}
	return total
}

// Centroids materializes the cluster means (zero for an empty
// cluster).
func (s *Stats) Centroids() [][]float64 {
	out := make([][]float64, len(s.Counts))
	for c := range out {
		out[c] = make([]float64, s.dim)
		if s.Counts[c] > 0 {
			copy(out[c], s.mean(c))
		}
	}
	return out
}

// NewFrozen allocates a snapshot buffer shaped like s, for reuse
// across FreezeInto calls.
func (s *Stats) NewFrozen() Stats {
	return Stats{
		Counts: make([]int, len(s.Counts)),
		Mass:   make([]float64, len(s.Mass)),
		mu:     make([]float64, len(s.mu)),
	}
}

// FreezeInto copies s's counts, masses and cached means into fz
// (allocated by NewFrozen) and shares the rows and weights, yielding a
// read-only view that scores moves while s keeps changing.
func (s *Stats) FreezeInto(fz *Stats) {
	fz.x = s.x
	fz.w = s.w
	fz.dim = s.dim
	copy(fz.Counts, s.Counts)
	copy(fz.Mass, s.Mass)
	copy(fz.mu, s.mu)
}
