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
	"runtime"
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
	// Init selects the initial clustering (default k-means++ hard
	// assignment).
	Init kmeans.InitMethod
	// MiniBatch, when m > 0, scores the SSE term against cluster
	// prototypes frozen once per batch of m assignment decisions (the
	// same Section 6.1 heuristic FairKM supports) instead of live
	// statistics. Under a parallel sweep it instead sets the
	// frozen-statistics batch size.
	MiniBatch int
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
	if cfg.Lambda < 0 {
		return nil, fmt.Errorf("zgya: negative lambda %v", cfg.Lambda)
	}
	if cfg.Tol < 0 {
		return nil, fmt.Errorf("zgya: negative tolerance %v", cfg.Tol)
	}
	if cfg.MiniBatch < 0 {
		return nil, fmt.Errorf("zgya: negative mini-batch size %d", cfg.MiniBatch)
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	workers := cfg.Parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	st := newSolver(ds, s, cfg)

	var sw engine.Sweeper
	switch {
	case workers >= 1:
		sw = engine.NewFrozenSweep(st, engine.FrozenOpts{
			Workers:    workers,
			Batch:      cfg.MiniBatch,
			Revalidate: true,
		})
	case cfg.MiniBatch > 0:
		sw = engine.NewMiniBatchSweep(st, cfg.MiniBatch)
	default:
		sw = engine.NewFullSweep(st)
	}

	er := engine.Solve(st, sw, engine.Config{
		MaxIter:  maxIter,
		Tol:      cfg.Tol,
		Budget:   cfg.Budget,
		Observer: cfg.Observer,
	})

	res := &Result{Lambda: st.lambda}
	res.Iterations = er.Iterations
	res.Converged = er.Converged
	res.Assign = st.assign
	res.Centroids = st.centroids()
	res.Sizes = append([]int(nil), st.counts...)
	res.SSE = st.sseTotal()
	res.KLPenalty = st.klTotal()
	res.Objective = res.SSE + st.lambda*res.KLPenalty
	return res, nil
}

// solver carries the sufficient statistics for coordinate descent on
// the ZGYA objective: per-cluster counts, feature sums, squared norms,
// and per-value counts for the sensitive attribute.
type solver struct {
	features [][]float64
	groups   []int
	u        []float64
	k        int
	n        int
	dim      int
	lambda   float64

	assign    []int
	counts    []int
	sums      [][]float64
	ssqs      []float64
	valCounts [][]int
	klCache   []float64

	// batchProtos are the frozen prototypes mini-batch sweeps score
	// the SSE term against, re-materialized by RefreshBatchView.
	batchProtos [][]float64
}

func newSolver(ds *dataset.Dataset, s *dataset.SensitiveAttr, cfg Config) *solver {
	n := ds.N()
	st := &solver{
		features: ds.Features,
		groups:   s.Codes,
		u:        ds.Fractions(s),
		k:        cfg.K,
		n:        n,
		dim:      ds.Dim(),
	}
	rng := stats.NewRNG(cfg.Seed)

	// Initial hard assignment from centroids (k-means++ by default).
	var centroids [][]float64
	switch cfg.Init {
	case kmeans.RandomPoints, kmeans.RandomPartition:
		pts := rng.SampleWithoutReplacement(n, st.k)
		centroids = make([][]float64, st.k)
		for i, p := range pts {
			centroids[i] = stats.Clone(st.features[p])
		}
	default:
		centroids = kmeans.PlusPlusCentroids(st.features, st.k, rng)
	}
	st.assign = make([]int, n)
	meanD := 0.0
	for i, x := range st.features {
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

	st.counts = make([]int, st.k)
	st.sums = make([][]float64, st.k)
	for c := range st.sums {
		st.sums[c] = make([]float64, st.dim)
	}
	st.ssqs = make([]float64, st.k)
	st.valCounts = make([][]int, st.k)
	for c := range st.valCounts {
		st.valCounts[c] = make([]int, len(st.u))
	}
	for i := range st.features {
		st.add(i, st.assign[i])
	}
	st.klCache = make([]float64, st.k)
	for c := 0; c < st.k; c++ {
		st.klCache[c] = st.klCluster(c)
	}
	return st
}

func (st *solver) add(i, c int) {
	x := st.features[i]
	st.counts[c]++
	stats.AddTo(st.sums[c], x)
	st.ssqs[c] += stats.Dot(x, x)
	st.valCounts[c][st.groups[i]]++
}

func (st *solver) del(i, c int) {
	x := st.features[i]
	st.counts[c]--
	stats.SubFrom(st.sums[c], x)
	st.ssqs[c] -= stats.Dot(x, x)
	st.valCounts[c][st.groups[i]]--
}

// klCluster returns KL(U ‖ P_c) with proportions floored at epsilon. An
// empty cluster is treated as all-floor (maximally unfair), so the
// penalty cannot be reduced by emptying clusters.
func (st *solver) klCluster(c int) float64 {
	return st.klOf(st.valCounts[c], st.counts[c])
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
	count := st.counts[c] + sign
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

func (st *solver) sseCluster(c int) float64 {
	m := st.counts[c]
	if m == 0 {
		return 0
	}
	s := st.ssqs[c] - stats.Dot(st.sums[c], st.sums[c])/float64(m)
	if s < 0 {
		s = 0
	}
	return s
}

func (st *solver) sseTotal() float64 {
	total := 0.0
	for c := 0; c < st.k; c++ {
		total += st.sseCluster(c)
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
func (st *solver) BestMove(i, from int) int { return st.bestMoveAgainst(i, from, nil) }

// Delta returns the exact objective change of moving row i, against
// live statistics.
func (st *solver) Delta(i, from, to int) float64 {
	x := st.features[i]
	dSSE := 0.0
	if m := st.counts[from]; m > 1 {
		dSSE -= float64(m) / float64(m-1) * sqDistToMean(x, st.sums[from], m)
	}
	if m := st.counts[to]; m > 0 {
		dSSE += float64(m) / float64(m+1) * sqDistToMean(x, st.sums[to], m)
	}
	dKL := (st.klWithDelta(from, i, -1) - st.klCache[from]) +
		(st.klWithDelta(to, i, +1) - st.klCache[to])
	return dSSE + st.lambda*dKL
}

// Move applies the move, refreshing the KL cache of both clusters.
func (st *solver) Move(i, from, to int) {
	st.del(i, from)
	st.add(i, to)
	st.assign[i] = to
	st.klCache[from] = st.klCluster(from)
	st.klCache[to] = st.klCluster(to)
}

// Value returns the current objective E = SSE + λ·Σ_C KL(U‖P_C).
func (st *solver) Value() float64 { return st.sseTotal() + st.lambda*st.klTotal() }

// ---- engine.BatchObjective (mini-batch heuristic) ----

// RefreshBatchView re-materializes the frozen prototypes the
// mini-batch sweep scores the SSE term against; the KL statistics stay
// live.
func (st *solver) RefreshBatchView() { st.batchProtos = st.centroids() }

// BestMoveBatch scores row i with the SSE term against the frozen
// prototypes.
func (st *solver) BestMoveBatch(i, from int) int {
	return st.bestMoveAgainst(i, from, st.batchProtos)
}

// ---- engine.SnapshotObjective (frozen-statistics parallel sweeps) ----

// solverSnap is a reusable frozen copy of the mutable statistics.
type solverSnap struct {
	live   *solver
	frozen *solver
}

// NewSnapshot allocates the snapshot buffer.
func (st *solver) NewSnapshot() engine.Snapshot {
	fz := &solver{
		counts: make([]int, st.k),
		sums:   make([][]float64, st.k),
		ssqs:   make([]float64, st.k),
	}
	for c := range fz.sums {
		fz.sums[c] = make([]float64, st.dim)
	}
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
	fz.features = st.features
	fz.groups = st.groups
	fz.u = st.u
	fz.k = st.k
	fz.n = st.n
	fz.dim = st.dim
	fz.lambda = st.lambda
	copy(fz.counts, st.counts)
	for c := range st.sums {
		copy(fz.sums[c], st.sums[c])
	}
	copy(fz.ssqs, st.ssqs)
	for c := range st.valCounts {
		copy(fz.valCounts[c], st.valCounts[c])
	}
	copy(fz.klCache, st.klCache)
}

// BestMove scores row i against the frozen statistics; safe for
// concurrent calls because the frozen solver is read-only between
// freezes.
func (s *solverSnap) BestMove(i, from int) int { return s.frozen.bestMoveAgainst(i, from, nil) }

// bestMoveAgainst is the single scoring kernel behind every sweep
// strategy: with frozen == nil the SSE term uses the live sufficient
// statistics; with a frozen prototype matrix it is the classic
// nearest-centroid comparison against those prototypes, while the KL
// term always stays live.
func (st *solver) bestMoveAgainst(i, from int, frozen [][]float64) int {
	x := st.features[i]
	klFromAfter := st.klWithDelta(from, i, -1)

	best := from
	bestDelta := 0.0
	if frozen == nil {
		var sseOut float64
		if m := st.counts[from]; m > 1 {
			sseOut = -float64(m) / float64(m-1) * sqDistToMean(x, st.sums[from], m)
		}
		for c := 0; c < st.k; c++ {
			if c == from {
				continue
			}
			dSSE := sseOut
			if m := st.counts[c]; m > 0 {
				dSSE += float64(m) / float64(m+1) * sqDistToMean(x, st.sums[c], m)
			}
			dKL := (klFromAfter - st.klCache[from]) + (st.klWithDelta(c, i, +1) - st.klCache[c])
			if delta := dSSE + st.lambda*dKL; delta < bestDelta {
				bestDelta = delta
				best = c
			}
		}
		return best
	}
	dFrom := stats.SqDist(x, frozen[from])
	for c := 0; c < st.k; c++ {
		if c == from {
			continue
		}
		dSSE := stats.SqDist(x, frozen[c]) - dFrom
		dKL := (klFromAfter - st.klCache[from]) + (st.klWithDelta(c, i, +1) - st.klCache[c])
		if delta := dSSE + st.lambda*dKL; delta < bestDelta {
			bestDelta = delta
			best = c
		}
	}
	return best
}

func sqDistToMean(x, sum []float64, m int) float64 {
	inv := 1.0 / float64(m)
	s := 0.0
	for j := range x {
		d := x[j] - sum[j]*inv
		s += d * d
	}
	return s
}

func (st *solver) centroids() [][]float64 {
	out := make([][]float64, st.k)
	for c := 0; c < st.k; c++ {
		out[c] = make([]float64, st.dim)
		if st.counts[c] > 0 {
			inv := 1.0 / float64(st.counts[c])
			for j := 0; j < st.dim; j++ {
				out[c][j] = st.sums[c][j] * inv
			}
		}
	}
	return out
}
