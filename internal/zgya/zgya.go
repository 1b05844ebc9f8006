// Package zgya implements the fair clustering baseline of Ziko, Granger,
// Yuan and Ben Ayed, "Clustering with Fairness Constraints: A Flexible
// and Scalable Approach" (2019) — the method the FairKM paper calls
// ZGYA and uses as its primary baseline (reference [22], Section 5.3).
//
// ZGYA augments the K-Means objective with a KL-divergence fairness
// penalty for a SINGLE multi-valued sensitive attribute:
//
//	E = Σ_C Σ_{X∈C} ‖X − μ_C‖²  +  λ · Σ_C KL(U ‖ P_C)
//
// where U is the dataset-level proportion vector of the sensitive
// attribute's values and P_C the value proportions inside cluster C.
//
// The published method optimizes a soft-assignment relaxation by bound
// optimization and hardens the result. Soft simultaneous updates are
// delicate to stabilize (the KL gradient explodes as a cluster's soft
// proportion of a value approaches zero), so this implementation
// optimizes the same objective directly over hard assignments with the
// round-robin coordinate descent also used by FairKM: each point moves
// to the cluster that most decreases E, which is monotone and
// convergent by construction. Cluster proportions are floored at a
// small epsilon inside the KL (the standard smoothing), and an empty
// cluster is scored as maximally unfair so the penalty cannot be gamed
// by collapsing clusters.
//
// Because the formulation admits exactly one sensitive attribute, the
// FairKM evaluation invokes ZGYA once per attribute (ZGYA(S)).
package zgya

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/kmeans"
	"repro/internal/stats"
)

// DefaultMaxIter bounds round-robin iterations when Config.MaxIter is
// zero, mirroring FairKM's experimental setting.
const DefaultMaxIter = 30

// Config parameterizes a ZGYA run.
type Config struct {
	// K is the number of clusters; required, 1 <= K <= n.
	K int
	// Lambda is the fairness trade-off weight. When AutoLambda is set,
	// λ = ¼·(d̄+1)·n/k where d̄ is the mean point-to-initial-centroid
	// squared distance: moving one point changes the KL penalty by
	// O(k/n), so this scaling makes the fairness force comparable to
	// the distance force on individual points. The result is the
	// trade-off profile the FairKM paper reports for ZGYA — a moderate
	// fairness gain bought with a visible clustering-quality loss,
	// collapsing on high-cardinality attributes where the floored KL
	// explodes (see EXPERIMENTS.md).
	Lambda float64
	// AutoLambda selects the heuristic above.
	AutoLambda bool
	// MaxIter bounds round-robin iterations; zero means DefaultMaxIter.
	MaxIter int
	// Tol, when positive, additionally stops the run once the
	// objective improves by less than Tol between iterations (the
	// engine's shared policy, identical for FairKM and K-Means). The
	// zero default keeps exact zero-moves convergence.
	Tol float64
	// Budget, when positive, stops the run at the first iteration
	// boundary after the wall-clock budget is spent.
	Budget time.Duration
	// Seed drives initialization.
	Seed int64
	// Init selects the initial centroids (default k-means++), taken
	// from the engine's shared initializer; every row starts at its
	// nearest one. RandomPartition seeds no centroids, and the λ
	// heuristic needs them, so ZGYA runs it as RandomPoints.
	Init kmeans.InitMethod
	// Parallelism selects the sweep execution mode, with exactly
	// FairKM's semantics: 0 (the default) is the strictly sequential
	// round-robin sweep; a positive value scores candidate moves with
	// that many workers against per-batch frozen statistics, applying
	// re-validated moves sequentially; any negative value uses
	// GOMAXPROCS workers. Results are deterministic and bit-identical
	// for every Parallelism >= 1.
	Parallelism int
	// Observer, when non-nil, receives per-iteration statistics
	// (moves, objective, elapsed wall-clock).
	Observer engine.Observer
}

// Result is a completed ZGYA clustering.
type Result struct {
	// Assign is the cluster assignment.
	Assign []int
	// Centroids are the final cluster means.
	Centroids [][]float64
	// Sizes are per-cluster cardinalities.
	Sizes []int
	// SSE is the K-Means component of the objective.
	SSE float64
	// KLPenalty is Σ_C KL(U‖P_C).
	KLPenalty float64
	// Objective is SSE + λ·KLPenalty.
	Objective float64
	// Lambda is the λ actually used.
	Lambda float64
	// Iterations counts round-robin passes executed.
	Iterations int
	// Converged reports whether a full pass completed with no moves.
	Converged bool
}

const epsilon = 1e-6

// Run clusters ds fairly with respect to the single named categorical
// sensitive attribute.
func Run(ds *dataset.Dataset, attr string, cfg Config) (*Result, error) {
	if ds == nil {
		return nil, errors.New("zgya: nil dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("zgya: %w", err)
	}
	s := ds.SensitiveByName(attr)
	if s == nil {
		return nil, fmt.Errorf("zgya: no sensitive attribute %q", attr)
	}
	if s.Kind != dataset.Categorical {
		return nil, fmt.Errorf("zgya: attribute %q is numeric; ZGYA handles a single categorical attribute", attr)
	}
	n := ds.N()
	if cfg.K < 1 || cfg.K > n {
		return nil, fmt.Errorf("zgya: K=%d out of range [1,%d]", cfg.K, n)
	}
	if cfg.Lambda < 0 || math.IsNaN(cfg.Lambda) || math.IsInf(cfg.Lambda, 0) {
		return nil, fmt.Errorf("zgya: lambda %v must be finite and non-negative", cfg.Lambda)
	}
	if cfg.Tol < 0 || math.IsNaN(cfg.Tol) || math.IsInf(cfg.Tol, 0) {
		return nil, fmt.Errorf("zgya: tolerance %v must be finite and non-negative", cfg.Tol)
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}

	st := newSolver(ds, s, cfg)
	er := engine.Solve(st, engine.NewSweep(st, cfg.Parallelism), engine.Config{
		MaxIter:  maxIter,
		Tol:      cfg.Tol,
		Budget:   cfg.Budget,
		Observer: cfg.Observer,
	})

	res := &Result{Lambda: st.lambda}
	res.Iterations = er.Iterations
	res.Converged = er.Converged
	res.Assign = st.assign
	res.Centroids = st.km.Centroids()
	res.Sizes = append([]int(nil), st.km.Counts...)
	res.SSE = st.km.SSE()
	res.KLPenalty = st.klTotal()
	res.Objective = res.SSE + st.lambda*res.KLPenalty
	return res, nil
}

// solver carries the sufficient statistics for coordinate descent on
// the ZGYA objective: the K-Means term's kmeans.Stats (the type FairKM
// scores the same term with) and per-value counts for the sensitive
// attribute.
type solver struct {
	groups []int
	u      []float64
	k      int
	n      int
	lambda float64

	assign    []int
	km        kmeans.Stats
	valCounts [][]int
	klCache   []float64
}

func newSolver(ds *dataset.Dataset, s *dataset.SensitiveAttr, cfg Config) *solver {
	n := ds.N()
	st := &solver{
		groups: s.Codes,
		u:      ds.Fractions(s),
		k:      cfg.K,
		n:      n,
	}

	// Initial hard assignment from the engine's centroids; see
	// Config.Init for RandomPartition.
	init := cfg.Init
	if init == engine.RandomPartition {
		init = engine.RandomPoints
	}
	centroids := engine.InitCentroids(ds.Features, nil, st.k, init, stats.NewRNG(cfg.Seed))
	st.assign = make([]int, n)
	meanD := 0.0
	for i, x := range ds.Features {
		best, bestD, sumD := 0, math.Inf(1), 0.0
		for c, cen := range centroids {
			d := stats.SqDist(x, cen)
			sumD += d
			if d < bestD {
				best, bestD = c, d
			}
		}
		st.assign[i] = best
		meanD += sumD / float64(st.k)
	}
	meanD /= float64(n)

	st.lambda = cfg.Lambda
	if cfg.AutoLambda {
		st.lambda = 0.25 * (meanD + 1) * float64(n) / float64(st.k)
	}

	st.km = kmeans.NewStats(ds.Features, nil, st.k, st.assign)
	st.valCounts = make([][]int, st.k)
	for c := range st.valCounts {
		st.valCounts[c] = make([]int, len(st.u))
	}
	for i, c := range st.assign {
		st.valCounts[c][st.groups[i]]++
	}
	st.klCache = make([]float64, st.k)
	for c := 0; c < st.k; c++ {
		st.klCache[c] = st.klCluster(c)
	}
	return st
}

// klCluster returns KL(U ‖ P_c) with proportions floored at epsilon. An
// empty cluster is treated as all-floor (maximally unfair), so the
// penalty cannot be reduced by emptying clusters.
func (st *solver) klCluster(c int) float64 {
	return st.klOf(st.valCounts[c], st.km.Counts[c])
}

func (st *solver) klOf(valCounts []int, count int) float64 {
	total := 0.0
	for j, uj := range st.u {
		if uj <= 0 {
			continue
		}
		p := epsilon
		if count > 0 {
			p = float64(valCounts[j]) / float64(count)
			if p < epsilon {
				p = epsilon
			}
		}
		total += uj * math.Log(uj/p)
	}
	return total
}

// klWithDelta returns what KL(U‖P_c) becomes if point i is added
// (sign=+1) or removed (sign=-1), without mutating state.
func (st *solver) klWithDelta(c, i, sign int) float64 {
	count := st.km.Counts[c] + sign
	if count == 0 {
		return st.klOf(nil, 0)
	}
	g := st.groups[i]
	inv := 1.0 / float64(count)
	total := 0.0
	for j, uj := range st.u {
		if uj <= 0 {
			continue
		}
		cnt := float64(st.valCounts[c][j])
		if j == g {
			cnt += float64(sign)
		}
		p := cnt * inv
		if p < epsilon {
			p = epsilon
		}
		total += uj * math.Log(uj/p)
	}
	return total
}

func (st *solver) klTotal() float64 {
	total := 0.0
	for c := 0; c < st.k; c++ {
		total += st.klCache[c]
	}
	return total
}

// ---- engine.Objective ----

// N returns the number of rows.
func (st *solver) N() int { return st.n }

// K returns the number of clusters.
func (st *solver) K() int { return st.k }

// Current returns row i's cluster.
func (st *solver) Current(i int) int { return st.assign[i] }

// BestMove scores row i against live statistics.
func (st *solver) BestMove(i, from int) int { return st.bestMove(i, from) }

// Delta returns the exact objective change of moving row i, against
// live statistics.
func (st *solver) Delta(i, from, to int) float64 {
	dSSE := st.km.OutDelta(i, from) + st.km.InDelta(i, to)
	dKL := (st.klWithDelta(from, i, -1) - st.klCache[from]) +
		(st.klWithDelta(to, i, +1) - st.klCache[to])
	return dSSE + st.lambda*dKL
}

// Move applies the move, refreshing the KL cache of both clusters.
func (st *solver) Move(i, from, to int) {
	st.km.Move(i, from, to)
	g := st.groups[i]
	st.valCounts[from][g]--
	st.valCounts[to][g]++
	st.assign[i] = to
	st.klCache[from] = st.klCluster(from)
	st.klCache[to] = st.klCluster(to)
}

// Value returns the current objective E = SSE + λ·Σ_C KL(U‖P_C).
func (st *solver) Value() float64 { return st.km.SSE() + st.lambda*st.klTotal() }

// ---- engine.SnapshotObjective (frozen-statistics parallel sweeps) ----

// solverSnap is a reusable frozen copy of the mutable statistics.
type solverSnap struct {
	live   *solver
	frozen *solver
}

// NewSnapshot allocates the snapshot buffer.
func (st *solver) NewSnapshot() engine.Snapshot {
	fz := &solver{km: st.km.NewFrozen()}
	fz.valCounts = make([][]int, st.k)
	for c := range fz.valCounts {
		fz.valCounts[c] = make([]int, len(st.u))
	}
	fz.klCache = make([]float64, st.k)
	return &solverSnap{live: st, frozen: fz}
}

// Freeze copies the live statistics into the buffer and shares the
// immutable ones.
func (s *solverSnap) Freeze() {
	st, fz := s.live, s.frozen
	fz.groups = st.groups
	fz.u = st.u
	fz.k = st.k
	fz.n = st.n
	fz.lambda = st.lambda
	st.km.FreezeInto(&fz.km)
	for c := range st.valCounts {
		copy(fz.valCounts[c], st.valCounts[c])
	}
	copy(fz.klCache, st.klCache)
}

// BestMove scores row i against the frozen statistics; safe for
// concurrent calls because the frozen solver is read-only between
// freezes.
func (s *solverSnap) BestMove(i, from int) int { return s.frozen.bestMove(i, from) }

// bestMove is the single scoring kernel behind every sweep strategy:
// the full sweep calls it on the live solver, the frozen sweep on a
// snapshot.
func (st *solver) bestMove(i, from int) int {
	klFromAfter := st.klWithDelta(from, i, -1)
	sseOut := st.km.OutDelta(i, from)

	best := from
	bestDelta := 0.0
	for c := 0; c < st.k; c++ {
		if c == from {
			continue
		}
		dSSE := sseOut + st.km.InDelta(i, c)
		dKL := (klFromAfter - st.klCache[from]) + (st.klWithDelta(c, i, +1) - st.klCache[c])
		if delta := dSSE + st.lambda*dKL; delta < bestDelta {
			bestDelta = delta
			best = c
		}
	}
	return best
}
