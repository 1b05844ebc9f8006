package core

import (
	"repro/internal/dataset"
	"repro/internal/stats"
)

// state holds the sufficient statistics FairKM maintains so every
// candidate move is evaluated in O(|N| + #attrs) — constant time per
// sensitive attribute — instead of rescanning cluster members or
// attribute domains (the optimization Section 4.2.1 motivates, taken
// one step further than the paper's O(Σ_S |Values(S)|) bookkeeping).
//
// Per cluster c it tracks:
//   - counts[c]: cardinality |c|
//   - sums[c]: per-feature sums, and the cached prototype
//     mu[c] = sums[c]·(1/mass[c]), refreshed by every move that changes
//     the cluster, which the K-Means deltas and centroids read
//   - ssqs[c]: Σ_{x∈c} ‖x‖², giving SSE_c = ssqs[c] − ‖sums[c]‖²/|c|
//   - numSums[a][c]: sum of numeric sensitive attr a over members
//   - devCache[c]: the cluster's current fairness deviation
//     contribution (the (|c|/n)²·ND_C term of Eq. 7 plus Eq. 22 terms)
//   - one record of the categorical slab (below)
//
// # Categorical slab
//
// Every categorical statistic lives in one flat, cluster-major slab
// cat: cluster c's record rec is cat[c·stride : (c+1)·stride], so
// scoring a candidate cluster reads one contiguous run of memory. For
// the j-th categorical attribute (j indexes catAttrs) the record holds
// two quadratic aggregates and the value masses cc; a third aggregate
// does not depend on the assignment and sits beside the record:
//
//	rec[2j]         = Σ_v cc[v]²
//	rec[2j+1]       = Σ_v cc[v]·Fr_X(v)
//	rec[ccOff[j]+v] = cc[v], the members' mass taking value v
//	catConst[j]     = Σ_v Fr_X(v)²
//
// Expanding Eq. 7's Σ_v (cc[v]/m − Fr_X(v))² gives the closed form
// (1/m²)·rec[2j] − (2/m)·rec[2j+1] + catConst[j], so both
// clusterDeviation and deviationWithDelta cost O(1) per attribute.
// When a point with value code moves in or out, only cc[code] changes,
// so the aggregates update in O(1) too:
//
//	rec[2j]   += ±2·cc[code] + 1
//	rec[2j+1] += ±Fr_X(code)
//
// Row i's value code for attribute j is resolved once per run into the
// row-offset table rowOff[i·nCat+j] = ccOff[j]+code, and frXAt holds
// Fr_X at the same record offsets, so the kernel reads a row's
// per-attribute constants without touching ds.Sensitive or any
// [attr][value] slice. rowOff, frXAt, catConst and catScale are
// immutable for the run and shared by frozen snapshots.
//
// The pre-aggregate per-value kernel is kept as the *Naive methods; it
// reads the value masses through catCounts[a][c], views into the slab.
// The unexported Config.naiveKernel knob routes scoring through it so
// parity tests and benchmarks can compare the two end to end.
//
// # Weighted points
//
// Every sufficient statistic is a weighted mass: row i carries weight
// rowW[i] (rowW == nil means unit weights), cluster "size" is the mass
// Σ_{i∈c} w_i, the cc value counts, numeric sums, feature sums and the
// SSE term all accumulate w_i-scaled contributions, and the Eq. 7
// fractions compare weighted cluster masses against weighted dataset
// masses. This is what lets a coreset row standing for w original
// points (internal/coreset) reproduce the objective those w points
// would have contributed — the summarize-then-solve pipeline's
// substrate. The unweighted solver is exactly the w ≡ 1 special case,
// and every weighted expression is arranged so that multiplying by a
// unit weight is an IEEE-754 no-op: the unit-weight trajectory is
// bit-identical to the historical unweighted kernel (pinned by the
// goldencase suite and TestWeightedUnitParity).
//
// counts keeps the plain row cardinality alongside mass: emptiness and
// singleton guards are structural (row-count) questions, while all
// arithmetic uses mass.
type state struct {
	ds      *dataset.Dataset
	k       int
	lambda  float64
	n       int
	dim     int
	weights []float64 // per sensitive attribute, aligned with ds.Sensitive
	naive   bool      // score with the per-value reference kernel

	rowW      []float64 // per-row weights; nil means unit weights
	totalMass float64   // Σ rowW (float64(n) when rowW == nil)

	assign []int
	counts []int     // per-cluster row counts (structural guards only)
	mass   []float64 // per-cluster weighted masses (all arithmetic)
	sums   [][]float64
	mu     []float64 // [c·dim+j] cached prototypes sums[c][j]·(1/mass[c])
	ssqs   []float64

	catAttrs []int // indexes into ds.Sensitive with Kind == Categorical
	numAttrs []int // indexes into ds.Sensitive with Kind == Numeric

	// frX[ai] is the dataset fraction vector for categorical attribute
	// ds.Sensitive[ai]; meanX[ai] the dataset mean for numeric ones.
	// Both are indexed by the attribute's position in ds.Sensitive (so
	// slots of the other kind are nil/zero).
	frX   [][]float64
	meanX []float64

	// The categorical slab and its per-run tables (see above); j
	// indexes catAttrs.
	nCat     int
	stride   int       // floats per cluster record
	ccOff    []int     // [j] record offset of attribute j's value masses
	cat      []float64 // k records of stride floats
	rowOff   []int32   // [i·nCat+j] record offset of row i's value of attr j
	frXAt    []float64 // [offset] Fr_X of the value stored there
	catConst []float64 // [j] Σ_v frX²
	// catScale[j] folds the Eq. 23 weight and the Eq. 4 domain
	// normalization into one factor: w_S/|Values(S)|.
	catScale []float64

	catCounts [][][]float64 // [attr][cluster] views of the value masses in cat, attr indexed as ds.Sensitive
	numSums   [][]float64   // [attr][cluster]
	numReals  [][]float64   // [j] ds.Sensitive[numAttrs[j]].Reals

	devCache []float64
}

// newState builds the sufficient statistics for assign. rowW carries
// per-row weights; nil means unit weights (the paper's raw-point
// setting, bit-identical to the historical unweighted kernel).
func newState(ds *dataset.Dataset, cfg *Config, lambda float64, assign []int, rowW []float64) *state {
	n := ds.N()
	st := &state{
		ds:     ds,
		k:      cfg.K,
		lambda: lambda,
		n:      n,
		dim:    ds.Dim(),
		rowW:   rowW,
		assign: assign,
		naive:  cfg.naiveKernel,
	}
	if rowW == nil {
		st.totalMass = float64(n)
	} else {
		st.totalMass = stats.Sum(rowW)
	}
	st.weights = make([]float64, len(ds.Sensitive))
	for i, s := range ds.Sensitive {
		w := 1.0
		if cw, ok := cfg.Weights[s.Name]; ok {
			w = cw
		}
		st.weights[i] = w
	}
	st.counts = make([]int, st.k)
	st.mass = make([]float64, st.k)
	st.sums = make([][]float64, st.k)
	for c := range st.sums {
		st.sums[c] = make([]float64, st.dim)
	}
	st.mu = make([]float64, st.k*st.dim)
	st.ssqs = make([]float64, st.k)
	st.frX = make([][]float64, len(ds.Sensitive))
	st.meanX = make([]float64, len(ds.Sensitive))
	st.numSums = make([][]float64, len(ds.Sensitive))
	for ai, s := range ds.Sensitive {
		switch s.Kind {
		case dataset.Categorical:
			st.catAttrs = append(st.catAttrs, ai)
			if rowW == nil {
				st.frX[ai] = ds.Fractions(s)
			} else {
				st.frX[ai] = weightedFractions(s, rowW, st.totalMass)
			}
			st.catScale = append(st.catScale, st.weights[ai]/float64(len(s.Values)))
			cnst := 0.0
			for _, fr := range st.frX[ai] {
				cnst += fr * fr
			}
			st.catConst = append(st.catConst, cnst)
		case dataset.Numeric:
			st.numAttrs = append(st.numAttrs, ai)
			if rowW == nil {
				st.meanX[ai] = stats.Mean(s.Reals)
			} else {
				st.meanX[ai] = weightedMean(s.Reals, rowW, st.totalMass)
			}
			st.numSums[ai] = make([]float64, st.k)
			st.numReals = append(st.numReals, s.Reals)
		}
	}

	st.nCat = len(st.catAttrs)
	st.ccOff = make([]int, st.nCat)
	st.stride = 2 * st.nCat
	for j, ai := range st.catAttrs {
		st.ccOff[j] = st.stride
		st.stride += len(ds.Sensitive[ai].Values)
	}
	st.frXAt = make([]float64, st.stride)
	st.rowOff = make([]int32, n*st.nCat)
	for j, ai := range st.catAttrs {
		copy(st.frXAt[st.ccOff[j]:], st.frX[ai])
		for i, code := range ds.Sensitive[ai].Codes {
			st.rowOff[i*st.nCat+j] = int32(st.ccOff[j] + code)
		}
	}
	st.cat = make([]float64, st.k*st.stride)
	st.catCounts = st.countViews(st.cat)

	for i := 0; i < n; i++ {
		st.add(i, assign[i], +1)
	}
	st.devCache = make([]float64, st.k)
	for c := 0; c < st.k; c++ {
		st.refreshMean(c)
		st.devCache[c] = st.clusterDeviation(c)
	}
	return st
}

// countViews returns the [attr][cluster] value-mass views into the
// slab cat, the layout the *Naive kernels read.
func (st *state) countViews(cat []float64) [][][]float64 {
	views := make([][][]float64, len(st.ds.Sensitive))
	for j, ai := range st.catAttrs {
		width := len(st.ds.Sensitive[ai].Values)
		views[ai] = make([][]float64, st.k)
		for c := range views[ai] {
			lo := c*st.stride + st.ccOff[j]
			views[ai][c] = cat[lo : lo+width : lo+width]
		}
	}
	return views
}

// record returns cluster c's record of the categorical slab.
func (st *state) record(c int) []float64 {
	return st.cat[c*st.stride : (c+1)*st.stride]
}

// rowOffsets returns row i's record offsets, one per categorical
// attribute.
func (st *state) rowOffsets(i int) []int32 {
	return st.rowOff[i*st.nCat : (i+1)*st.nCat]
}

// mean returns cluster c's cached prototype.
func (st *state) mean(c int) []float64 {
	return st.mu[c*st.dim : (c+1)*st.dim]
}

// refreshMean recomputes cluster c's cached prototype from its sums;
// an empty cluster keeps a stale one that nothing reads.
func (st *state) refreshMean(c int) {
	if st.counts[c] == 0 {
		return
	}
	inv := 1.0 / st.mass[c]
	mu := st.mean(c)
	for j, s := range st.sums[c] {
		mu[j] = s * inv
	}
}

// wOf returns row i's weight (1 under unit weights).
func (st *state) wOf(i int) float64 {
	if st.rowW == nil {
		return 1
	}
	return st.rowW[i]
}

// add adds (sign=+1) or subtracts (sign=-1) row i's mass-w
// contribution to cluster c's statistics (assignment bookkeeping only;
// the cached prototype and devCache are managed by callers). The
// quadratic aggregates absorb (cc+sw)² − cc² = sw·(2·cc + sw) with
// sw = sign·w; negating w is exact, so subtracting through sw rounds
// exactly as subtracting w·(2·cc − w) would.
func (st *state) add(i, c, sign int) {
	sw := float64(sign) * st.wOf(i)
	st.counts[c] += sign
	st.mass[c] += sw
	x := st.ds.Features[i]
	stats.AddScaledTo(st.sums[c], x, sw)
	st.ssqs[c] += sw * stats.Dot(x, x)
	rec := st.record(c)
	for j, off := range st.rowOffsets(i) {
		old := rec[off]
		rec[off] = old + sw
		rec[2*j] += sw * (2*old + sw)
		rec[2*j+1] += sw * st.frXAt[off]
	}
	for j, ai := range st.numAttrs {
		st.numSums[ai][c] += sw * st.numReals[j][i]
	}
}

// move transfers row i from cluster from to cluster to, refreshing the
// cached prototype and deviation of both clusters.
func (st *state) move(i, from, to int) {
	st.add(i, from, -1)
	st.add(i, to, +1)
	st.assign[i] = to
	st.refreshMean(from)
	st.refreshMean(to)
	st.devCache[from] = st.clusterDeviation(from)
	st.devCache[to] = st.clusterDeviation(to)
}

// sseCluster returns the K-Means SSE contribution of cluster c from its
// sufficient statistics: Σw‖x‖² − ‖Σwx‖²/mass.
func (st *state) sseCluster(c int) float64 {
	if st.counts[c] == 0 {
		return 0
	}
	s := st.ssqs[c] - stats.Dot(st.sums[c], st.sums[c])/st.mass[c]
	if s < 0 {
		s = 0 // floating-point cancellation guard
	}
	return s
}

// sseTotal returns the full K-Means term.
func (st *state) sseTotal() float64 {
	total := 0.0
	for c := 0; c < st.k; c++ {
		total += st.sseCluster(c)
	}
	return total
}

// clusterDeviation returns cluster c's fairness contribution:
//
//	(|c|/n)² · [ Σ_cat w_S · Σ_s (Fr_C(s) − Fr_X(s))² / |Values(S)|
//	           + Σ_num w_S · (mean_C(S) − mean_X(S))² ]
//
// Empty clusters contribute 0 (Eq. 3). The categorical inner sum is the
// O(1) closed form (1/m²)·rec[2j] − (2/m)·rec[2j+1] + catConst[j].
func (st *state) clusterDeviation(c int) float64 {
	if st.naive {
		return st.clusterDeviationNaive(c)
	}
	if st.counts[c] == 0 {
		return 0
	}
	inv := 1.0 / st.mass[c]
	rec := st.record(c)
	nd := 0.0
	for j := 0; j < st.nCat; j++ {
		sum := inv*inv*rec[2*j] - 2*inv*rec[2*j+1] + st.catConst[j]
		if sum < 0 {
			sum = 0 // floating-point cancellation guard
		}
		nd += st.catScale[j] * sum
	}
	for _, ai := range st.numAttrs {
		d := st.numSums[ai][c]*inv - st.meanX[ai]
		nd += st.weights[ai] * d * d
	}
	return st.clusterWeight(st.mass[c]) * nd
}

// clusterDeviationNaive is the per-value reference form of
// clusterDeviation — a direct transcription of Eqs. 3–7 that rescans
// every value of every categorical attribute. O(Σ_S |Values(S)|).
func (st *state) clusterDeviationNaive(c int) float64 {
	if st.counts[c] == 0 {
		return 0
	}
	inv := 1.0 / st.mass[c]
	nd := 0.0
	for _, ai := range st.catAttrs {
		frX := st.frX[ai]
		cc := st.catCounts[ai][c]
		sum := 0.0
		for v := range frX {
			d := cc[v]*inv - frX[v]
			sum += d * d
		}
		sum /= float64(len(frX))
		nd += st.weights[ai] * sum
	}
	for _, ai := range st.numAttrs {
		d := st.numSums[ai][c]*inv - st.meanX[ai]
		nd += st.weights[ai] * d * d
	}
	return st.clusterWeight(st.mass[c]) * nd
}

// clusterWeight returns (mass_C/mass_X)². Under unit weights this is
// the paper's (|C|/|X|)² (Section 4.1, "Cluster Weighting").
func (st *state) clusterWeight(m float64) float64 {
	frac := m / st.totalMass
	return frac * frac
}

// fairnessTotal returns deviation_S(C, X) across all clusters using the
// cache.
func (st *state) fairnessTotal() float64 {
	total := 0.0
	for _, d := range st.devCache {
		total += d
	}
	return total
}

// deviationWithDelta computes what cluster c's fairness contribution
// would become if row i were added (sign=+1) or removed (sign=-1),
// without mutating state. Only cc[code] shifts by sw = sign·w, so the
// aggregates adjust in O(1) per attribute:
//
//	rec[2j]'   = rec[2j] + sw·(2·cc[code] + sw)
//	rec[2j+1]' = rec[2j+1] + sw·Fr_X(code)
//
// It reads cluster c's slab record and the per-run tables at row i's
// offsets, nothing else of the categorical statistics.
//
//fairvet:hotpath
func (st *state) deviationWithDelta(c, i, sign int) float64 {
	if st.naive {
		return st.deviationWithDeltaNaive(c, i, sign)
	}
	if st.counts[c]+sign == 0 {
		return 0
	}
	sw := float64(sign) * st.wOf(i)
	m := st.mass[c] + sw
	inv := 1.0 / m
	rec := st.record(c)
	nd := 0.0
	for j, off := range st.rowOffsets(i) {
		sq := rec[2*j] + sw*(2*rec[off]+sw)
		cross := rec[2*j+1] + sw*st.frXAt[off]
		sum := inv*inv*sq - 2*inv*cross + st.catConst[j]
		if sum < 0 {
			sum = 0 // floating-point cancellation guard
		}
		nd += st.catScale[j] * sum
	}
	for j, ai := range st.numAttrs {
		val := st.numSums[ai][c] + sw*st.numReals[j][i]
		d := val*inv - st.meanX[ai]
		nd += st.weights[ai] * d * d
	}
	return st.clusterWeight(m) * nd
}

// deviationWithDeltaNaive is the per-value reference form of
// deviationWithDelta. O(Σ_S |Values(S)|).
func (st *state) deviationWithDeltaNaive(c, i, sign int) float64 {
	if st.counts[c]+sign == 0 {
		return 0
	}
	sw := float64(sign) * st.wOf(i)
	m := st.mass[c] + sw
	inv := 1.0 / m
	nd := 0.0
	for _, ai := range st.catAttrs {
		frX := st.frX[ai]
		cc := st.catCounts[ai][c]
		code := st.ds.Sensitive[ai].Codes[i]
		sum := 0.0
		for v := range frX {
			cnt := cc[v]
			if v == code {
				cnt += sw
			}
			d := cnt*inv - frX[v]
			sum += d * d
		}
		sum /= float64(len(frX))
		nd += st.weights[ai] * sum
	}
	for _, ai := range st.numAttrs {
		val := st.numSums[ai][c] + sw*st.ds.Sensitive[ai].Reals[i]
		d := val*inv - st.meanX[ai]
		nd += st.weights[ai] * d * d
	}
	return st.clusterWeight(m) * nd
}

// kmeansOutDelta returns the change in the K-Means term from removing
// row i (mass w) from its cluster c (Eq. 12 in closed sufficient-
// statistic form: −m·w/(m−w)·‖x−μ‖², 0 when the cluster is a
// singleton row).
//
//fairvet:hotpath
func (st *state) kmeansOutDelta(i, c int) float64 {
	if st.counts[c] <= 1 {
		return 0
	}
	m := st.mass[c]
	w := st.wOf(i)
	return -m * w / (m - w) * st.distToMean(i, c)
}

// kmeansInDelta returns the change in the K-Means term from adding row
// i (mass w) to cluster c (Eq. 14 in closed form: +m·w/(m+w)·‖x−μ‖²,
// 0 for an empty cluster).
//
//fairvet:hotpath
func (st *state) kmeansInDelta(i, c int) float64 {
	if st.counts[c] == 0 {
		return 0
	}
	m := st.mass[c]
	w := st.wOf(i)
	return m * w / (m + w) * st.distToMean(i, c)
}

// distToMean returns ‖x_i − μ_c‖² against the cached prototype, summed
// in index order (stats.SqDist's four-lane sum would round
// differently).
//
//fairvet:hotpath
func (st *state) distToMean(i, c int) float64 {
	x := st.ds.Features[i]
	mu := st.mean(c)[:len(x)] // one bounds check instead of one per feature
	s := 0.0
	for j, xj := range x {
		d := xj - mu[j]
		s += d * d
	}
	return s
}

// moveDelta returns the exact objective change δ(O) of moving row i
// from cluster from to cluster to against the live statistics.
func (st *state) moveDelta(i, from, to int) float64 {
	dKM := st.kmeansOutDelta(i, from) + st.kmeansInDelta(i, to)
	dFair := (st.deviationWithDelta(from, i, -1) - st.devCache[from]) +
		(st.deviationWithDelta(to, i, +1) - st.devCache[to])
	return dKM + st.lambda*dFair
}

// centroids materializes the cluster prototypes (weighted means; zero
// for an empty cluster).
func (st *state) centroids() [][]float64 {
	out := make([][]float64, st.k)
	for c := 0; c < st.k; c++ {
		out[c] = make([]float64, st.dim)
		if st.counts[c] > 0 {
			copy(out[c], st.mean(c))
		}
	}
	return out
}

// weightedFractions is ds.Fractions under per-row masses: Fr_X(v) =
// Σ_{i: code_i = v} w_i / Σ w.
func weightedFractions(s *dataset.SensitiveAttr, rowW []float64, totalMass float64) []float64 {
	fr := make([]float64, len(s.Values))
	for i, c := range s.Codes {
		fr[c] += rowW[i]
	}
	for i := range fr {
		fr[i] /= totalMass
	}
	return fr
}

// weightedMean is stats.Mean under per-row masses.
func weightedMean(xs, rowW []float64, totalMass float64) float64 {
	s := 0.0
	for i, x := range xs {
		s += rowW[i] * x
	}
	return s / totalMass
}

// newFrozen allocates a snapshot buffer shaped like st, for reuse
// across freezeInto calls.
func (st *state) newFrozen() *state {
	fz := &state{ds: st.ds, k: st.k, catAttrs: st.catAttrs, stride: st.stride, ccOff: st.ccOff}
	fz.counts = make([]int, st.k)
	fz.mass = make([]float64, st.k)
	fz.mu = make([]float64, len(st.mu))
	fz.cat = make([]float64, len(st.cat))
	fz.catCounts = fz.countViews(fz.cat)
	fz.numSums = make([][]float64, len(st.numSums))
	for _, ai := range st.numAttrs {
		fz.numSums[ai] = make([]float64, st.k)
	}
	fz.devCache = make([]float64, st.k)
	return fz
}

// freezeInto copies st's mutable statistics into the snapshot buffer fz
// (allocated by newFrozen) and shares the immutable ones, yielding a
// read-only view safe for concurrent scoring while st keeps mutating.
// fz.assign, fz.sums and fz.ssqs stay nil: scoring reads the cached
// prototypes instead of the sums, and never touches the others.
func (st *state) freezeInto(fz *state) {
	fz.ds = st.ds
	fz.k = st.k
	fz.lambda = st.lambda
	fz.n = st.n
	fz.dim = st.dim
	fz.weights = st.weights
	fz.naive = st.naive
	fz.rowW = st.rowW
	fz.totalMass = st.totalMass
	fz.catAttrs = st.catAttrs
	fz.numAttrs = st.numAttrs
	fz.frX = st.frX
	fz.meanX = st.meanX
	fz.nCat = st.nCat
	fz.stride = st.stride
	fz.ccOff = st.ccOff
	fz.rowOff = st.rowOff
	fz.frXAt = st.frXAt
	fz.catConst = st.catConst
	fz.catScale = st.catScale
	fz.numReals = st.numReals

	copy(fz.counts, st.counts)
	copy(fz.mass, st.mass)
	copy(fz.mu, st.mu)
	copy(fz.cat, st.cat)
	for _, ai := range st.numAttrs {
		copy(fz.numSums[ai], st.numSums[ai])
	}
	copy(fz.devCache, st.devCache)
}
