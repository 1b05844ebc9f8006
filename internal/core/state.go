package core

import (
	"repro/internal/dataset"
	"repro/internal/kmeans"
)

// state is the FairKM objective of Eq. 1 over one assignment: the
// K-Means term's statistics — per-cluster row counts, masses, feature
// sums, cached prototypes and Σw‖x‖², with their move deltas, SSE and
// centroids — are a kmeans.Stats (km), the same type ZGYA scores its
// K-Means term with, and the fairness term's are a fairStats (fair).
// state scores a move as km's delta plus λ times fair's, and applies
// it to both.
//
// # Weighted points
//
// Every sufficient statistic is a weighted mass: row i carries weight
// rowW[i] (rowW == nil means unit weights; km.Weight reads it),
// cluster "size" is the mass Σ_{i∈c} w_i, the value masses, numeric
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
type state struct {
	k, n   int
	lambda float64
	assign []int
	km     kmeans.Stats // the K-Means term
	fair   fairStats    // the fairness term
}

// newState builds the sufficient statistics for assign. rowW carries
// per-row weights; nil means unit weights (the paper's raw-point
// setting, bit-identical to the historical unweighted kernel).
func newState(ds *dataset.Dataset, cfg *Config, lambda float64, assign []int, rowW []float64) *state {
	st := &state{
		k:      cfg.K,
		n:      ds.N(),
		lambda: lambda,
		assign: assign,
		km:     kmeans.NewStats(ds.Features, rowW, cfg.K, assign),
	}
	st.fair = newFairStats(ds, cfg, &st.km, assign, rowW)
	return st
}

// move transfers row i from cluster from to cluster to in both terms'
// statistics.
func (st *state) move(i, from, to int) {
	st.km.Move(i, from, to)
	st.fair.move(&st.km, i, from, to)
	st.assign[i] = to
}

// moveDelta returns the exact objective change δ(O) of moving row i
// from cluster from to cluster to against the live statistics.
func (st *state) moveDelta(i, from, to int) float64 {
	km, fair := &st.km, &st.fair
	dKM := km.OutDelta(i, from) + km.InDelta(i, to)
	dFair := (fair.deviationWithDelta(km, from, i, -1) - fair.devCache[from]) +
		(fair.deviationWithDelta(km, to, i, +1) - fair.devCache[to])
	return dKM + st.lambda*dFair
}

// newFrozen allocates a snapshot buffer shaped like st, for reuse
// across freezeInto calls. Its assign stays nil: scoring never reads
// it.
func (st *state) newFrozen() *state {
	return &state{k: st.k, n: st.n, lambda: st.lambda, km: st.km.NewFrozen(), fair: st.fair.newFrozen()}
}

// freezeInto copies st's mutable statistics into the snapshot buffer fz
// (allocated by newFrozen) and shares the immutable ones, yielding a
// read-only view safe for concurrent scoring while st keeps mutating.
func (st *state) freezeInto(fz *state) {
	st.km.FreezeInto(&fz.km)
	st.fair.freezeInto(&fz.fair)
}
