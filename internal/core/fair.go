package core

import (
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
// # Skip bound
//
// bestMove skips a candidate cluster c when a lower bound on its
// fairness change, deviationWithDelta(km, c, i, +1) − devCache[c],
// shows the move cannot beat the best so far. With s_j = catScale,
// K_j = catConst, F_v = Fr_X(v), T = totalMass, m = Mass[c] and the
// record's sq_j, cross_j and cc_v, let
//
//	U_c = Σ_j s_j·(sq_j − 2m·cross_j + m²·K_j) / T²
//
// be c's categorical deviation without the clamp at 0. Adding row i,
// of weight w and values v_j, changes it by
//
//	ΔU = Σ_j s_j·[2w·(cc_v − (m+w)·F_v) + w² − 2w·cross_j + (2mw + w²)·K_j] / T²
//	   = w·(Σ_j G_c(v_j) + A_c) + w²·(B − Σ_j P(v_j)),
//
//	G_c(v) = 2s_j·(cc_v − m·F_v)/T²,  A_c = Σ_j 2s_j·(m·K_j − cross_j)/T²,
//	B = Σ_j s_j·(1 + K_j)/T²,         P(v) = 2s_j·F_v/T².
//
// deviationWithDelta is (m+w)²/T² times the clamped categorical sum
// plus numeric terms ≥ 0; the clamp only raises a term and s_j ≥ 0,
// so deviationWithDelta ≥ U_c + ΔU, and
//
//	deviationWithDelta − devCache[c] ≥ ΔU + (U_c − devCache[c]).
//
// G_c is not stored. With h_j = 2s_j/T², G_c(v) = h_j·cc_v − m·P(v),
// so the linear coefficient is
//
//	Σ_j G_c(v_j) + A_c = A_c − m·Σ_j P(v_j) + Σ_j h_j·cc_{v_j},
//
// read from the value masses in c's record, at the row's offsets, as
// the kernel reads them. refreshBound keeps A_c in skipA, m in skipM
// and U_c − devCache[c], less a pad, in skipR, in O(#attrs) per
// cluster; B (skipB), h (skipH) and P (skipP, at the value-mass
// offsets) are per-run tables. skipQuad(i) gives row i's w²
// coefficient and Σ_j P(v_j) once per bestMove call, and lowerBound
// adds one product per attribute to A_c − m·Σ_j P(v_j): no division.
// lowerBound4 does the same for four consecutive clusters with four
// independent accumulators, each summing in lowerBound's order, so
// every lane keeps lowerBound's bits. (A per-cluster bound valid for
// every row, with min_v (cc_v − (m+W)·F_v) in place of the row's own
// terms, skipped 77% of the candidates of a full-size Adult fit; this
// one skips 99.4%.)
//
// The inequality is exact arithmetic; the kernel and the bound both
// round. Their rounding error is a few ulps of the magnitudes that
// enter them: |sq_j|, W², (|m|+W)·(|cross_j| + W) (which covers the
// w·cc_v terms, as cc_v ≤ m) and (|m|+W)²·K_j, each times s_j/T², and
// devCache[c], with W the largest row weight. The pad is skipPad times
// their sum, pushing the float bound below the float difference it
// bounds (the outward padding of kmeans' pruned Lloyd). The bound's
// w·m·P(v_j) and w·h_j·cc_v terms cancel each other in floating point
// rather than inside one difference cc_v − m·F_v, but each is at most
// 2s_j·m·w/T² (F_v ≤ 1, cc_v ≤ m), so the sum's rounding error, a few
// ulps per attribute of ~4s_j·m·w/T², stays far below the pad: the
// magnitudes already hold 2(|m|+W)·W·s_j/T² per attribute. newFairStats
// and move refresh the pieces of every cluster whose record, mass or
// devCache changes, and freezeInto copies them, so frozen snapshots
// skip too. The bound is off (skip false) under the naive kernel,
// which stays the oracle that scores every candidate, and where the
// unexported Config.noSkip asks tests to compare against scoring
// every candidate.
type fairStats struct {
	fairTables

	cat      []float64 // k records of stride floats
	devCache []float64 // [c] cluster c's contribution, deviation(km, c)

	// The skip bound (see above); nil when skip is off.
	skipA []float64 // [c] A_c
	skipM []float64 // [c] m, cluster c's mass
	skipR []float64 // [c] U_c − devCache[c], less the pad
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

	// The skip bound's per-run constants (see "Skip bound").
	skip  bool      // bestMove skips candidates on the bound
	maxW  float64   // W, the largest row weight
	invT2 float64   // 1/T²
	skipB float64   // B
	skipH []float64 // [j] h_j = 2s_j/T²
	skipP []float64 // [off] P of the value stored at off
}

// skipPad is the skip bound's outward pad, relative to the magnitudes
// that enter it (see "Skip bound"). Kernel and bound each take a few
// roundings per attribute, ~1e-15 of those magnitudes; 1e-12 dwarfs
// that, as kmeans' prunePad does.
const skipPad = 1e-12

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

	t.skip = !cfg.naiveKernel && !cfg.noSkip
	t.maxW = 1
	if rowW != nil {
		t.maxW = stats.Max(rowW)
	}
	t.invT2 = 1 / (t.totalMass * t.totalMass)
	if t.skip {
		t.skipP = make([]float64, t.stride)
		t.skipH = make([]float64, t.nCat)
		for j, s := range t.catScale {
			t.skipB += s * (1 + t.catConst[j]) * t.invT2
			t.skipH[j] = 2 * s * t.invT2
			for off := t.ccOff[j]; off < t.ccOff[j+1]; off++ {
				t.skipP[off] = 2 * s * t.frXAt[off] * t.invT2
			}
		}
	}

	f := fairStats{fairTables: t, cat: make([]float64, cfg.K*t.stride), devCache: make([]float64, cfg.K)}
	for i, c := range assign {
		f.add(i, c, km.Weight(i))
	}
	if t.skip {
		f.skipA = make([]float64, cfg.K)
		f.skipM = make([]float64, cfg.K)
		f.skipR = make([]float64, cfg.K)
	}
	for c := range f.devCache {
		f.devCache[c] = f.deviation(km, c)
		f.refreshBound(km, c)
	}
	return f
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
// cached deviation and skip-bound pieces of both clusters. km must
// already hold the move.
func (f *fairStats) move(km *kmeans.Stats, i, from, to int) {
	w := km.Weight(i)
	f.add(i, from, -w)
	f.add(i, to, w)
	f.devCache[from] = f.deviation(km, from)
	f.devCache[to] = f.deviation(km, to)
	f.refreshBound(km, from)
	f.refreshBound(km, to)
}

// refreshBound recomputes cluster c's skip-bound pieces from its
// record, km.Mass[c] and devCache[c] (see "Skip bound").
func (f *fairStats) refreshBound(km *kmeans.Stats, c int) {
	if !f.skip {
		return
	}
	rec := f.record(c)
	m, w := km.Mass[c], f.maxW
	am := math.Abs(m) + w
	u, a, mag := 0.0, 0.0, 0.0
	for j := 0; j < f.nCat; j++ {
		sq, cross, k, s := rec[2*j], rec[2*j+1], f.catConst[j], f.catScale[j]
		u += s * (sq - 2*m*cross + m*m*k)
		a += 2 * s * (m*k - cross)
		mag += s * (math.Abs(sq) + w*w + 2*am*(math.Abs(cross)+w) + am*am*k)
	}
	dev := f.devCache[c]
	f.skipA[c] = a * f.invT2
	f.skipM[c] = m
	f.skipR[c] = u*f.invT2 - dev - skipPad*(mag*f.invT2+dev)
}

// rowBound holds a row's pieces of the skip bound (see "Skip bound").
type rowBound struct {
	q float64 // the w² coefficient B − Σ_j P(v_j)
	p float64 // Σ_j P(v_j)
}

// skipQuad returns row i's pieces of the skip bound: its w²
// coefficient and Σ_j P(v_j) (see "Skip bound").
//
//fairvet:hotpath
func (t *fairTables) skipQuad(i int) rowBound {
	p := 0.0
	for _, off := range t.rowOffsets(i) {
		p += t.skipP[off]
	}
	return rowBound{q: t.skipB - p, p: p}
}

// lowerBound returns the padded skip bound on
// deviationWithDelta(km, c, i, +1) − devCache[c] for row i of weight
// w, whose skipQuad is r (see "Skip bound").
//
//fairvet:hotpath
func (f *fairStats) lowerBound(c, i int, w float64, r rowBound) float64 {
	rec := f.record(c)
	offs := f.rowOffsets(i)
	h := f.skipH[:len(offs)]
	lin := f.skipA[c] - f.skipM[c]*r.p
	for j, off := range offs {
		lin += h[j] * rec[off]
	}
	return w*(lin+w*r.q) + f.skipR[c]
}

// lowerBound4 returns lowerBound(c, i, w, r), …, lowerBound(c+3, i, w,
// r), bit for bit; c+3 must be a cluster. Each lane has its own
// accumulator and sums in lowerBound's order, and the row's offsets
// are read once for all four, as kmeans.Stats.InDelta4 reads the
// row's features.
//
//fairvet:hotpath
func (f *fairStats) lowerBound4(c, i int, w float64, r rowBound) (b0, b1, b2, b3 float64) {
	offs := f.rowOffsets(i)
	h := f.skipH[:len(offs)]
	n := f.stride
	r0 := f.cat[c*n:][:n]
	r1 := f.cat[(c+1)*n:][:n]
	r2 := f.cat[(c+2)*n:][:n]
	r3 := f.cat[(c+3)*n:][:n]
	m, a := f.skipM[c:c+4], f.skipA[c:c+4]
	l0 := a[0] - m[0]*r.p
	l1 := a[1] - m[1]*r.p
	l2 := a[2] - m[2]*r.p
	l3 := a[3] - m[3]*r.p
	for j, off := range offs {
		hj := h[j]
		l0 += hj * r0[off]
		l1 += hj * r1[off]
		l2 += hj * r2[off]
		l3 += hj * r3[off]
	}
	u := f.skipR[c : c+4]
	return w*(l0+w*r.q) + u[0], w*(l1+w*r.q) + u[1], w*(l2+w*r.q) + u[2], w*(l3+w*r.q) + u[3]
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
// offsets, nothing else.
//
//fairvet:hotpath
func (f *fairStats) deviationWithDelta(km *kmeans.Stats, c, i, sign int) float64 {
	if km.Counts[c]+sign == 0 {
		return 0
	}
	sw := float64(sign) * km.Weight(i)
	m := km.Mass[c] + sw
	inv := 1.0 / m
	nd := 0.0
	if f.naive {
		nd = f.catTermsNaive(c, i, inv, sw)
	} else {
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
	return fairStats{
		cat:      make([]float64, len(f.cat)),
		devCache: make([]float64, len(f.devCache)),
		skipA:    make([]float64, len(f.skipA)),
		skipM:    make([]float64, len(f.skipM)),
		skipR:    make([]float64, len(f.skipR)),
	}
}

// freezeInto copies f's per-cluster statistics into fz (allocated by
// newFrozen) and shares the per-run tables, yielding a read-only view
// that scores moves concurrently while f keeps changing. The skip
// bound is copied too, so fz skips exactly as f would.
func (f *fairStats) freezeInto(fz *fairStats) {
	fz.fairTables = f.fairTables
	copy(fz.cat, f.cat)
	copy(fz.devCache, f.devCache)
	copy(fz.skipA, f.skipA)
	copy(fz.skipM, f.skipM)
	copy(fz.skipR, f.skipR)
}
