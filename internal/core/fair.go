package core

import (
	"encoding/binary"
	"math"

	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/stats"
)

// fairStats holds the sufficient statistics of FairKM's fairness term
// deviation_S(C, X) (Eqs. 7, 22 and 23), as kmeans.Stats holds those
// of the K-Means term, so a move is scored and applied in
// O(#attrs) — constant time per sensitive attribute — instead of
// rescanning cluster members or attribute domains (the optimization
// Section 4.2.1 motivates, taken one step further than the paper's
// O(Σ_S |Values(S)|) bookkeeping). Cluster row counts, masses and row
// weights live in the kmeans.Stats alone; every method that needs them
// takes it as km.
//
// # The slab
//
// Every per-cluster statistic lives in one flat, cluster-major slab
// cat: cluster c's record rec is cat[c·stride : (c+1)·stride], so
// scoring a candidate cluster reads one contiguous run of memory. For
// the j-th categorical attribute the record holds two quadratic
// aggregates and the value masses cc; after them come the numeric
// sums. A third categorical aggregate does not depend on the
// assignment and sits in the tables:
//
//	rec[2j]          = Σ_v cc[v]²
//	rec[2j+1]        = Σ_v cc[v]·Fr_X(v)
//	rec[ccOff[j]+v]  = cc[v], the members' mass taking value v
//	rec[numOff+j]    = Σ w·x over the members, numeric attribute j
//	catConst[j]      = Σ_v Fr_X(v)²
//
// Expanding Eq. 7's Σ_v (cc[v]/m − Fr_X(v))² gives the closed form
// (1/m²)·rec[2j] − (2/m)·rec[2j+1] + catConst[j], so a cluster's
// deviation and its delta cost O(1) per attribute. When a row with
// value code moves in or out, only cc[code] changes, so the aggregates
// update in O(1) too:
//
//	rec[2j]   += ±2·cc[code] + 1
//	rec[2j+1] += ±Fr_X(code)
//
// Row i's value code for attribute j is resolved once per run into the
// row-offset table rowOff[i·nCat+j] = ccOff[j]+code, and frXAt holds
// Fr_X at the same record offsets, so the kernel reads a row's
// per-attribute constants without touching ds.Sensitive or any
// [attr][value] slice. These per-run tables (fairTables) are immutable
// and held by value, so a frozen copy takes them in one assignment.
//
// The per-value reference kernel (catTermsNaive, a direct
// transcription of Eqs. 3–7) reads the same value masses and Fr_X
// through ccOff and frXAt. The unexported Config.naiveKernel knob
// routes scoring through it so parity tests and benchmarks can compare
// the two end to end.
//
// # Delta memo
//
// deviationWithDelta(km, c, i, sign) reads row i only through its
// record offsets, its weight and its numeric sensitive values. Rows
// with the same offsets (and, under row weights, the same weight bits)
// form one *profile*; without numeric attributes they get the same
// delta from cluster c until c's statistics change. newFairStats
// interns the profiles into rowProf (nProf of them, in
// first-appearance order), and the memo keeps one k×nProf table of
// (generation, value) slots per sign, indexed c·nProf+p (cluster-major:
// one cluster's slots are adjacent). Only move writes cluster
// statistics after construction, and it bumps the generation gen[c] of
// both clusters it touches, so a slot stamped gen[c] holds what the
// kernel would compute now. memoSlot finds the slot; fairDelta returns
// its value or computes, stores and returns it. Either way the bits
// are the kernel's.
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
// the naive kernel. A frozen copy copies the tables and the mutable
// statistics only, so it never carries the memo and parallel workers
// read no shared mutable table. The unexported Config.memo overrides
// the cut-off for tests and benchmarks.
type fairStats struct {
	fairTables

	cat      []float64 // k records of stride floats
	devCache []float64 // [c] cluster c's contribution, deviation(km, c)

	// The delta memo (see above); rowProf == nil when it is off.
	rowProf  []int32     // [i] profile ID of row i
	nProf    int         // distinct profiles
	memoFull bool        // slots hold whole deltas (no numeric attributes)
	gen      []uint32    // [c] generation, bumped by every move touching c
	memoIn   []memoEntry // [c·nProf+p] slots for sign +1
	memoOut  []memoEntry // [c·nProf+p] slots for sign −1
}

// fairTables are the fairness term's per-run tables: fixed by the
// dataset, the row and attribute weights and the kernel choice. j
// indexes the categorical attributes, in ds.Sensitive order, in the
// cat* tables, and the numeric ones in the num* tables and meanX.
type fairTables struct {
	totalMass float64 // Σ rowW (float64(n) when rowW == nil)
	naive     bool    // score with the per-value reference kernel

	nCat     int
	stride   int       // floats per cluster record
	numOff   int       // record offset of the numeric sums
	ccOff    []int     // [j] record offset of attribute j's value masses; [nCat] = numOff
	rowOff   []int32   // [i·nCat+j] record offset of row i's value of attribute j
	frXAt    []float64 // [offset] Fr_X of the value stored there
	catConst []float64 // [j] Σ_v Fr_X(v)²
	// catScale[j] folds the Eq. 23 weight and the Eq. 4 domain
	// normalization into one factor: w_S/|Values(S)|.
	catScale []float64
	catW     []float64 // [j] w_S, for the naive kernel

	numW     []float64   // [j] w_S
	meanX    []float64   // [j] the dataset's (weighted) mean
	numReals [][]float64 // [j] the attribute's values, by row
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

// newFairStats builds the fairness statistics of the cfg.K-cluster
// assignment of ds's rows, whose K-Means statistics km already holds.
// rowW carries per-row weights; nil means unit weights.
func newFairStats(ds *dataset.Dataset, cfg *Config, km *kmeans.Stats, assign []int, rowW []float64) fairStats {
	n := ds.N()
	t := fairTables{totalMass: float64(n), naive: cfg.naiveKernel}
	if rowW != nil {
		t.totalMass = stats.Sum(rowW)
	}
	var cats []*dataset.SensitiveAttr
	for _, s := range ds.Sensitive {
		w := 1.0
		if cw, ok := cfg.Weights[s.Name]; ok {
			w = cw
		}
		switch s.Kind {
		case dataset.Categorical:
			cats = append(cats, s)
			t.catScale = append(t.catScale, w/float64(len(s.Values)))
			t.catW = append(t.catW, w)
		case dataset.Numeric:
			t.numW = append(t.numW, w)
			t.meanX = append(t.meanX, weightedMean(s.Reals, rowW, t.totalMass))
			t.numReals = append(t.numReals, s.Reals)
		}
	}

	t.nCat = len(cats)
	t.ccOff = make([]int, t.nCat+1)
	t.stride = 2 * t.nCat
	for j, s := range cats {
		t.ccOff[j] = t.stride
		t.stride += len(s.Values)
	}
	t.numOff = t.stride
	t.ccOff[t.nCat] = t.numOff
	t.stride += len(t.numReals)
	t.frXAt = make([]float64, t.stride)
	t.catConst = make([]float64, t.nCat)
	t.rowOff = make([]int32, n*t.nCat)
	for j, s := range cats {
		frX := weightedFractions(s, rowW, t.totalMass)
		for _, fr := range frX {
			t.catConst[j] += fr * fr
		}
		copy(t.frXAt[t.ccOff[j]:], frX)
		for i, code := range s.Codes {
			t.rowOff[i*t.nCat+j] = int32(t.ccOff[j] + code)
		}
	}

	f := fairStats{fairTables: t, cat: make([]float64, cfg.K*t.stride), devCache: make([]float64, cfg.K)}
	for i, c := range assign {
		f.add(i, c, km.Weight(i))
	}
	for c := range f.devCache {
		f.devCache[c] = f.deviation(km, c)
	}
	f.initMemo(cfg.memo, rowW, n)
	return f
}

// initMemo interns the n rows' profiles and allocates the delta memo
// unless policy or the cut-off (see "Delta memo") turns it off.
func (f *fairStats) initMemo(policy memoPolicy, rowW []float64, n int) {
	if policy == memoOff || f.naive || f.nCat == 0 {
		return
	}
	k := len(f.devCache)
	limit := n
	if policy == memoAuto {
		limit = min(n/memoMinRowsPerProf, memoMaxEntries/k)
	}
	prof, nProf := f.internProfiles(rowW, n, limit)
	if prof == nil {
		return
	}
	f.rowProf, f.nProf = prof, nProf
	f.memoFull = len(f.numReals) == 0
	f.gen = make([]uint32, k)
	for c := range f.gen {
		f.gen[c] = 1 // slots start at generation 0: no stamp matches yet
	}
	f.memoIn = make([]memoEntry, k*nProf)
	f.memoOut = make([]memoEntry, k*nProf)
}

// internProfiles returns each of the n rows' profile IDs — rows with
// equal record offsets and, when rowW != nil, equal weight bits share
// one, numbered in first-appearance order — and the profile count. It
// gives up and returns nil once more than limit profiles appear.
func (t *fairTables) internProfiles(rowW []float64, n, limit int) ([]int32, int) {
	ids := make(map[string]int32)
	prof := make([]int32, n)
	key := make([]byte, 0, 4*t.nCat+8)
	for i := range prof {
		key = key[:0]
		for _, off := range t.rowOffsets(i) {
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
func (f *fairStats) bump(c int) {
	f.gen[c]++
	if f.gen[c] == 0 {
		lo, hi := c*f.nProf, (c+1)*f.nProf
		clear(f.memoIn[lo:hi])
		clear(f.memoOut[lo:hi])
		f.gen[c] = 1
	}
}

// record returns cluster c's record of the slab.
func (f *fairStats) record(c int) []float64 {
	return f.cat[c*f.stride : (c+1)*f.stride]
}

// rowOffsets returns row i's record offsets, one per categorical
// attribute.
func (t *fairTables) rowOffsets(i int) []int32 {
	return t.rowOff[i*t.nCat : (i+1)*t.nCat]
}

// add adds row i's contribution, scaled by sw (its weight, negated to
// subtract), to cluster c's record; devCache is managed by callers.
// The quadratic aggregates absorb (cc+sw)² − cc² = sw·(2·cc + sw);
// negating w is exact, so subtracting through sw rounds exactly as
// subtracting w·(2·cc − w) would.
func (f *fairStats) add(i, c int, sw float64) {
	rec := f.record(c)
	for j, off := range f.rowOffsets(i) {
		old := rec[off]
		rec[off] = old + sw
		rec[2*j] += sw * (2*old + sw)
		rec[2*j+1] += sw * f.frXAt[off]
	}
	for j, xs := range f.numReals {
		rec[f.numOff+j] += sw * xs[i]
	}
}

// move transfers row i from cluster from to cluster to, refreshing the
// cached deviation of both clusters and, with the memo on, bumping
// their generations. km must already hold the move.
func (f *fairStats) move(km *kmeans.Stats, i, from, to int) {
	w := km.Weight(i)
	f.add(i, from, -w)
	f.add(i, to, w)
	f.devCache[from] = f.deviation(km, from)
	f.devCache[to] = f.deviation(km, to)
	if f.rowProf != nil {
		f.bump(from)
		f.bump(to)
	}
}

// deviation returns cluster c's fairness contribution:
//
//	(|c|/n)² · [ Σ_cat w_S · Σ_s (Fr_C(s) − Fr_X(s))² / |Values(S)|
//	           + Σ_num w_S · (mean_C(S) − mean_X(S))² ]
//
// Empty clusters contribute 0 (Eq. 3).
func (f *fairStats) deviation(km *kmeans.Stats, c int) float64 {
	return f.deviationWithDelta(km, c, 0, 0)
}

// deviationWithDelta computes what cluster c's fairness contribution
// would become if row i were added (sign=+1) or removed (sign=-1),
// without mutating the statistics; sign=0 gives the contribution as it
// stands, since shifting a sum by sw = 0 leaves its bits unchanged.
// Only cc[code] shifts, by sw = sign·w, so the aggregates adjust in
// O(1) per attribute:
//
//	rec[2j]'   = rec[2j] + sw·(2·cc[code] + sw)
//	rec[2j+1]' = rec[2j+1] + sw·Fr_X(code)
//
// It reads cluster c's record and the per-run tables at row i's
// offsets, nothing else. When the delta memo holds categorical parts
// (numeric attributes present), the categorical sum nd comes from
// there; the numeric terms and the cluster weight are added per call,
// in the same order.
//
//fairvet:hotpath
func (f *fairStats) deviationWithDelta(km *kmeans.Stats, c, i, sign int) float64 {
	if km.Counts[c]+sign == 0 {
		return 0
	}
	sw := float64(sign) * km.Weight(i)
	m := km.Mass[c] + sw
	inv := 1.0 / m
	var e *memoEntry // the memo slot of the categorical sum, if any
	fresh := false
	if f.rowProf != nil && !f.memoFull && sign != 0 {
		e, fresh = f.memoSlot(c, i, sign)
	}
	nd := 0.0
	switch {
	case fresh:
		nd = e.val
	case f.naive:
		nd = f.catTermsNaive(c, i, inv, sw)
	default:
		rec := f.record(c)
		for j, off := range f.rowOffsets(i) {
			sq := rec[2*j] + sw*(2*rec[off]+sw)
			cross := rec[2*j+1] + sw*f.frXAt[off]
			sum := inv*inv*sq - 2*inv*cross + f.catConst[j]
			if sum < 0 {
				sum = 0 // floating-point cancellation guard
			}
			nd += f.catScale[j] * sum
		}
		if e != nil {
			e.val = nd
		}
	}
	for j, xs := range f.numReals {
		d := (f.cat[c*f.stride+f.numOff+j]+sw*xs[i])*inv - f.meanX[j]
		nd += f.numW[j] * d * d
	}
	return f.clusterWeight(m) * nd
}

// catTermsNaive is the per-value reference form of deviationWithDelta's
// categorical sum, a direct transcription of Eqs. 3–7 that rescans
// every value of every categorical attribute. O(Σ_S |Values(S)|).
func (f *fairStats) catTermsNaive(c, i int, inv, sw float64) float64 {
	rec := f.record(c)
	nd := 0.0
	for j, own := range f.rowOffsets(i) {
		lo, hi := f.ccOff[j], f.ccOff[j+1]
		sum := 0.0
		for off := lo; off < hi; off++ {
			cnt := rec[off]
			if off == int(own) {
				cnt += sw
			}
			d := cnt*inv - f.frXAt[off]
			sum += d * d
		}
		sum /= float64(hi - lo)
		nd += f.catW[j] * sum
	}
	return nd
}

// fairDelta returns deviationWithDelta(km, c, i, sign), read from the
// delta memo when that holds whole deltas: a stale slot is computed
// and stored.
//
//fairvet:hotpath
func (f *fairStats) fairDelta(km *kmeans.Stats, c, i, sign int) float64 {
	if !f.memoFull {
		return f.deviationWithDelta(km, c, i, sign)
	}
	e, ok := f.memoSlot(c, i, sign)
	if !ok {
		e.val = f.deviationWithDelta(km, c, i, sign)
	}
	return e.val
}

// memoSlot returns the delta-memo slot of (c, row i's profile, sign)
// and whether it holds a value stored at c's current generation. A
// stale slot is stamped current before it is returned, so the caller
// must store the value.
//
//fairvet:hotpath
func (f *fairStats) memoSlot(c, i, sign int) (*memoEntry, bool) {
	tab := f.memoIn
	if sign < 0 {
		tab = f.memoOut
	}
	e := &tab[c*f.nProf+int(f.rowProf[i])]
	if g := f.gen[c]; e.gen != g {
		e.gen = g
		return e, false
	}
	return e, true
}

// clusterWeight returns (mass_C/mass_X)². Under unit weights this is
// the paper's (|C|/|X|)² (Section 4.1, "Cluster Weighting").
func (t *fairTables) clusterWeight(m float64) float64 {
	frac := m / t.totalMass
	return frac * frac
}

// total returns deviation_S(C, X) across all clusters using the cache.
func (f *fairStats) total() float64 {
	total := 0.0
	for _, d := range f.devCache {
		total += d
	}
	return total
}

// newFrozen allocates a snapshot buffer shaped like f, for reuse
// across freezeInto calls.
func (f *fairStats) newFrozen() fairStats {
	return fairStats{cat: make([]float64, len(f.cat)), devCache: make([]float64, len(f.devCache))}
}

// freezeInto copies f's per-cluster statistics into fz (allocated by
// newFrozen) and shares the per-run tables, yielding a read-only view
// that scores moves concurrently while f keeps changing. The memo is
// not copied: fz scores every delta afresh.
func (f *fairStats) freezeInto(fz *fairStats) {
	fz.fairTables = f.fairTables
	copy(fz.cat, f.cat)
	copy(fz.devCache, f.devCache)
}
