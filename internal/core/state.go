package core

import (
	"encoding/binary"
	"math"

	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/stats"
)

// state holds the sufficient statistics FairKM maintains so every
// candidate move is evaluated in O(|N| + #attrs) — constant time per
// sensitive attribute — instead of rescanning cluster members or
// attribute domains (the optimization Section 4.2.1 motivates, taken
// one step further than the paper's O(Σ_S |Values(S)|) bookkeeping).
//
// The K-Means term's statistics — per-cluster row counts, masses,
// feature sums, cached prototypes and Σw‖x‖², with their move deltas,
// SSE and centroids — are a kmeans.Stats (km), the same type ZGYA
// scores its K-Means term with. Beside it, per cluster c, state tracks
// the fairness term:
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
// rowW[i] (rowW == nil means unit weights; km.Weight reads it),
// cluster "size" is the mass Σ_{i∈c} w_i, the cc value counts, numeric
// sums, feature sums and the SSE term all accumulate w_i-scaled
// contributions, and the Eq. 7 fractions compare weighted cluster
// masses against weighted dataset masses. This is what lets a coreset
// row standing for w original points (internal/coreset) reproduce the
// objective those w points would have contributed — the
// summarize-then-solve pipeline's substrate. The unweighted solver is
// exactly the w ≡ 1 special case, and every weighted expression is
// arranged so that multiplying by a unit weight is an IEEE-754 no-op:
// the unit-weight trajectory is bit-identical to the historical
// unweighted kernel (pinned by the goldencase suite and
// TestWeightedUnitParity).
//
// km.Counts keeps the plain row cardinality alongside km.Mass:
// emptiness and singleton guards are structural (row-count) questions,
// while all arithmetic uses mass.
//
// # Delta memo
//
// deviationWithDelta(c, i, sign) reads row i only through its record
// offsets, its weight and its numeric sensitive values. Rows with the
// same offsets (and, under row weights, the same weight bits) form one
// *profile*; without numeric attributes they get the same delta from
// cluster c until c's statistics change. newState interns the profiles
// into rowProf (nProf of them, in first-appearance order), and the
// memo keeps one k×nProf table of (generation, value) slots per sign,
// indexed c·nProf+p (cluster-major: one cluster's slots are adjacent).
// Only move writes cluster statistics after newState, and it bumps the
// generation gen[c] of both clusters it touches, so a slot stamped
// gen[c] holds what the kernel would compute now. memoSlot finds the
// slot; fairDelta returns its value or computes, stores and returns it.
// Either way the bits are the kernel's.
//
// With no numeric sensitive attribute (memoFull) a slot holds the
// whole delta. Otherwise it holds the categorical sum nd, and
// deviationWithDelta adds the numeric terms and the cluster weight per
// call, in the order it always has; a whole-delta slot saves that
// call's division, measurably on unit-weight categorical runs.
//
// The memo is off (rowProf == nil) where it cannot pay: with no
// categorical attribute, when more than one row in memoMinRowsPerProf
// starts a new profile (a coreset summary's distinct weights), or when
// one table would exceed memoMaxEntries slots. It is also off under
// the naive kernel, and frozen snapshots never carry it, so parallel
// workers read no shared mutable table. The unexported Config.memo
// overrides the cut-off for tests and benchmarks.
type state struct {
	ds      *dataset.Dataset
	k       int
	lambda  float64
	n       int
	weights []float64 // per sensitive attribute, aligned with ds.Sensitive
	naive   bool      // score with the per-value reference kernel

	totalMass float64 // Σ rowW (float64(n) when rowW == nil)

	assign []int
	km     kmeans.Stats // the K-Means term

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

	// The delta memo (see above); rowProf == nil when it is off.
	rowProf  []int32     // [i] profile ID of row i
	nProf    int         // distinct profiles
	memoFull bool        // slots hold whole deltas (no numeric attributes)
	gen      []uint32    // [c] generation, bumped by every move touching c
	memoIn   []memoEntry // [c·nProf+p] slots for sign +1
	memoOut  []memoEntry // [c·nProf+p] slots for sign −1
}

// memoEntry is one delta-memo slot: the value stored when its
// cluster's generation was gen.
type memoEntry struct {
	gen uint32
	val float64
}

// The delta memo's cut-off: a profile must on average cover at least
// memoMinRowsPerProf rows, and one table holds at most memoMaxEntries
// slots (16 B each). Measured on weighted full-size Adult fits (k 15),
// the memo cost 7% at 5.6 rows per profile and saved 3% at 7.3 and 10%
// at 9.5; unit-weight Adult, at 19, saves a third.
const (
	memoMinRowsPerProf = 8
	memoMaxEntries     = 1 << 20
)

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
		assign: assign,
		naive:  cfg.naiveKernel,
		km:     kmeans.NewStats(ds.Features, rowW, cfg.K, assign),
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
		st.addFair(i, assign[i], st.km.Weight(i))
	}
	st.devCache = make([]float64, st.k)
	for c := 0; c < st.k; c++ {
		st.devCache[c] = st.clusterDeviation(c)
	}
	st.initMemo(cfg.memo, rowW)
	return st
}

// initMemo interns the row profiles and allocates the delta memo
// unless policy or the cut-off (see "Delta memo") turns it off.
func (st *state) initMemo(policy memoPolicy, rowW []float64) {
	if policy == memoOff || st.naive || st.nCat == 0 {
		return
	}
	limit := st.n
	if policy == memoAuto {
		limit = min(st.n/memoMinRowsPerProf, memoMaxEntries/st.k)
	}
	prof, nProf := st.internProfiles(rowW, limit)
	if prof == nil {
		return
	}
	st.rowProf, st.nProf = prof, nProf
	st.memoFull = len(st.numAttrs) == 0
	st.gen = make([]uint32, st.k)
	for c := range st.gen {
		st.gen[c] = 1 // slots start at generation 0: no stamp matches yet
	}
	st.memoIn = make([]memoEntry, st.k*nProf)
	st.memoOut = make([]memoEntry, st.k*nProf)
}

// internProfiles returns each row's profile ID — rows with equal
// record offsets and, when rowW != nil, equal weight bits share one,
// numbered in first-appearance order — and the profile count. It gives
// up and returns nil once more than limit profiles appear.
func (st *state) internProfiles(rowW []float64, limit int) ([]int32, int) {
	ids := make(map[string]int32)
	prof := make([]int32, st.n)
	key := make([]byte, 0, 4*st.nCat+8)
	for i := range prof {
		key = key[:0]
		for _, off := range st.rowOffsets(i) {
			key = binary.LittleEndian.AppendUint32(key, uint32(off))
		}
		if rowW != nil {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(rowW[i]))
		}
		p, ok := ids[string(key)]
		if !ok {
			if len(ids) == limit {
				return nil, 0
			}
			p = int32(len(ids))
			ids[string(key)] = p
		}
		prof[i] = p
	}
	return prof, len(ids)
}

// bump advances cluster c's memo generation, invalidating every slot
// stored for c. A generation that wraps to 0 clears c's slots first,
// so no stamp from 2³² moves ago can match.
func (st *state) bump(c int) {
	st.gen[c]++
	if st.gen[c] == 0 {
		lo, hi := c*st.nProf, (c+1)*st.nProf
		clear(st.memoIn[lo:hi])
		clear(st.memoOut[lo:hi])
		st.gen[c] = 1
	}
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

// addFair adds row i's fairness-term contribution, scaled by sw (its
// weight, negated to subtract), to cluster c's statistics; devCache is
// managed by callers. The quadratic aggregates absorb
// (cc+sw)² − cc² = sw·(2·cc + sw); negating w is exact, so subtracting
// through sw rounds exactly as subtracting w·(2·cc − w) would.
func (st *state) addFair(i, c int, sw float64) {
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
	w := st.km.Weight(i)
	st.km.Move(i, from, to)
	st.addFair(i, from, -w)
	st.addFair(i, to, w)
	st.assign[i] = to
	st.devCache[from] = st.clusterDeviation(from)
	st.devCache[to] = st.clusterDeviation(to)
	if st.rowProf != nil {
		st.bump(from)
		st.bump(to)
	}
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
	if st.km.Counts[c] == 0 {
		return 0
	}
	inv := 1.0 / st.km.Mass[c]
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
	return st.clusterWeight(st.km.Mass[c]) * nd
}

// clusterDeviationNaive is the per-value reference form of
// clusterDeviation — a direct transcription of Eqs. 3–7 that rescans
// every value of every categorical attribute. O(Σ_S |Values(S)|).
func (st *state) clusterDeviationNaive(c int) float64 {
	if st.km.Counts[c] == 0 {
		return 0
	}
	inv := 1.0 / st.km.Mass[c]
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
	return st.clusterWeight(st.km.Mass[c]) * nd
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
// offsets, nothing else of the categorical statistics. When the delta
// memo holds categorical parts (numeric attributes present), the
// categorical sum nd comes from there; the numeric terms and the
// cluster weight are added per call, in the same order.
//
//fairvet:hotpath
func (st *state) deviationWithDelta(c, i, sign int) float64 {
	if st.naive {
		return st.deviationWithDeltaNaive(c, i, sign)
	}
	if st.km.Counts[c]+sign == 0 {
		return 0
	}
	sw := float64(sign) * st.km.Weight(i)
	m := st.km.Mass[c] + sw
	inv := 1.0 / m
	nd := 0.0
	if e, ok := st.catSlot(c, i, sign); ok {
		nd = e.val
	} else {
		rec := st.record(c)
		for j, off := range st.rowOffsets(i) {
			sq := rec[2*j] + sw*(2*rec[off]+sw)
			cross := rec[2*j+1] + sw*st.frXAt[off]
			sum := inv*inv*sq - 2*inv*cross + st.catConst[j]
			if sum < 0 {
				sum = 0 // floating-point cancellation guard
			}
			nd += st.catScale[j] * sum
		}
		if e != nil {
			e.val = nd
		}
	}
	for j, ai := range st.numAttrs {
		val := st.numSums[ai][c] + sw*st.numReals[j][i]
		d := val*inv - st.meanX[ai]
		nd += st.weights[ai] * d * d
	}
	return st.clusterWeight(m) * nd
}

// fairDelta returns deviationWithDelta(c, i, sign), read from the
// delta memo when that holds whole deltas (see state): a stale slot is
// computed and stored.
//
//fairvet:hotpath
func (st *state) fairDelta(c, i, sign int) float64 {
	if !st.memoFull {
		return st.deviationWithDelta(c, i, sign)
	}
	e, ok := st.memoSlot(c, i, sign)
	if !ok {
		e.val = st.deviationWithDelta(c, i, sign)
	}
	return e.val
}

// catSlot is memoSlot when the delta memo holds categorical parts, and
// (nil, false) otherwise.
//
//fairvet:hotpath
func (st *state) catSlot(c, i, sign int) (*memoEntry, bool) {
	if st.rowProf == nil || st.memoFull {
		return nil, false
	}
	return st.memoSlot(c, i, sign)
}

// memoSlot returns the delta-memo slot of (c, row i's profile, sign)
// and whether it holds a value stored at c's current generation. A
// stale slot is stamped current before it is returned, so the caller
// must store the value.
//
//fairvet:hotpath
func (st *state) memoSlot(c, i, sign int) (*memoEntry, bool) {
	tab := st.memoIn
	if sign < 0 {
		tab = st.memoOut
	}
	e := &tab[c*st.nProf+int(st.rowProf[i])]
	if g := st.gen[c]; e.gen != g {
		e.gen = g
		return e, false
	}
	return e, true
}

// deviationWithDeltaNaive is the per-value reference form of
// deviationWithDelta. O(Σ_S |Values(S)|).
func (st *state) deviationWithDeltaNaive(c, i, sign int) float64 {
	if st.km.Counts[c]+sign == 0 {
		return 0
	}
	sw := float64(sign) * st.km.Weight(i)
	m := st.km.Mass[c] + sw
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

// moveDelta returns the exact objective change δ(O) of moving row i
// from cluster from to cluster to against the live statistics.
func (st *state) moveDelta(i, from, to int) float64 {
	dKM := st.km.OutDelta(i, from) + st.km.InDelta(i, to)
	dFair := (st.fairDelta(from, i, -1) - st.devCache[from]) +
		(st.fairDelta(to, i, +1) - st.devCache[to])
	return dKM + st.lambda*dFair
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
	fz.km = st.km.NewFrozen()
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
// fz.assign stays nil: scoring never reads it.
func (st *state) freezeInto(fz *state) {
	fz.ds = st.ds
	fz.k = st.k
	fz.lambda = st.lambda
	fz.n = st.n
	fz.weights = st.weights
	fz.naive = st.naive
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

	st.km.FreezeInto(&fz.km)
	copy(fz.cat, st.cat)
	for _, ai := range st.numAttrs {
		copy(fz.numSums[ai], st.numSums[ai])
	}
	copy(fz.devCache, st.devCache)
}
