// Package core implements FairKM, the fair clustering algorithm of
// Abraham, Deepak P and Sundaram, "Fairness in Clustering with Multiple
// Sensitive Attributes" (EDBT 2020).
//
// FairKM minimizes the objective (paper Eq. 1)
//
//	O = Σ_C Σ_{X∈C} dist_N(X, C)  +  λ · deviation_S(C, X)
//
// where the first term is the classical K-Means SSE over the
// non-sensitive attributes N and the second penalizes, for every
// sensitive attribute S and value s, the squared difference between the
// fractional representation of s inside each cluster and in the whole
// dataset — weighted by the squared fractional cluster cardinality and
// normalized by the attribute's domain cardinality (Eq. 7).
//
// Optimization is coordinate descent over objects in round-robin order
// (Section 4.2): each object is moved to the cluster that minimizes the
// objective given all other assignments, with cluster prototypes and
// fractional representations updated incrementally after every move.
//
// # Architecture
//
// This package is the FairKM *objective* for the shared descent engine
// (internal/engine): state scores and applies single-point moves
// through two sufficient-statistics types, kmeans.Stats for the
// K-Means term and fairStats for the fairness term. Initialization,
// sweep scheduling (full, frozen-parallel), convergence policies
// (zero-moves, Tol, MaxIter, wall-clock Budget) and the per-iteration
// Observer hook are the engine's, shared bit-for-bit with the K-Means
// and ZGYA solvers. See DESIGN.md for the layering and the parallelism
// contract; golden-trajectory tests (internal/goldencase) pin this
// split to the pre-engine behaviour.
//
// # Sweep complexity
//
// A direct implementation of the per-candidate fairness delta rescans
// every value of every categorical sensitive attribute, so one
// round-robin sweep costs O(n·k·(|N| + Σ_S |Values(S)|)). This package
// instead maintains, per (attribute, cluster) pair, the quadratic
// aggregates Σ_v cc², Σ_v cc·Fr_X and the constant Σ_v Fr_X² (see
// fairStats), which turn each candidate evaluation into an
// O(1)-per-attribute closed form; a sweep is O(n·k·(|N| + #attrs)),
// independent of the attribute domain sizes — the Σ_S |Values(S)|
// factor Section 6.1's scalability discussion worries about is gone
// (41 values of native-country cost the same as 2 of gender).
//
// The aggregates, value masses and numeric sums live in one flat slab
// with one contiguous record per cluster, each row's value codes are
// resolved once per run into record offsets (the row-offset table),
// and each cluster's prototype is cached and refreshed per move.
// Scoring a candidate cluster thus reads one record, the row's offsets
// and one cached centroid — no per-attribute slice walks, no
// allocation — with every floating-point expression in the order that
// keeps trajectories bit-identical to the golden recordings.
//
// # Candidate skipping
//
// Most candidate clusters cannot beat the best move found so far, and
// bestMove proves that before it computes their fairness delta. The
// fairness change of adding a row to cluster c is bounded below by
// the change of c's deviation without its clamp at 0, a quadratic in
// the row's weight whose linear coefficient is a per-cluster term,
// less c's mass times a per-row term, plus one scaled value mass of
// c's record per attribute; every move refreshes the per-cluster terms
// of the two clusters it touches in O(#attrs) (see fairStats, "Skip
// bound"). bestMove scores candidates four clusters at a time: the
// exact K-Means changes (kmeans.Stats.InDelta4) and the fairness
// bounds (fairStats.lowerBound4) of each block of four come with
// independent accumulators, every lane keeping the bits of the scalar
// form, and lanes are tested in index order. A candidate is skipped
// when the K-Means change plus λ times the bounded fairness change
// already reaches the best δ so far: the exact δ would then be
// rejected too, because the bound is padded below the float value it
// bounds and rounding is monotone. Skipping therefore changes no decision, ties included,
// sequentially and in frozen sweeps alike. On full-size Adult at k 15
// it skips 99.4% of the candidates.
//
// # Parallel sweeps
//
// Config.Parallelism additionally spreads candidate scoring over
// worker goroutines via the engine's frozen sweep: points are
// processed in fixed-size batches, each batch is scored concurrently
// against sufficient statistics frozen at its start, and accepted
// moves are applied sequentially in row order after re-validating
// their objective delta against the live statistics. Results are
// deterministic and identical for every worker count; they can differ
// from the strictly sequential Algorithm 1 (Parallelism 0) because
// points within a batch do not see each other's moves — the
// relaxation Section 6.1 sketches for mini-batching. Re-validation
// keeps descent monotone, so convergence guarantees are preserved.
//
// The objective is the paper's as stated: cluster weight (|C|/|X|)²,
// the Eq. 4 domain normalization, and statistics updated after every
// move. Beyond it the package implements the paper's two extensions:
// numeric sensitive attributes (Eq. 22) and per-attribute fairness
// weights (Eq. 23).
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// DefaultMaxIter is the iteration cap used in the paper's experiments
// (Section 5.4).
const DefaultMaxIter = 30

// Config parameterizes a FairKM run.
type Config struct {
	// K is the number of clusters; required, 1 <= K <= n.
	K int
	// Lambda is the fairness weight λ from Eq. 1. When AutoLambda is
	// set, Lambda is ignored and the paper's heuristic λ = (n/K)² from
	// Section 5.4 is used instead.
	Lambda float64
	// AutoLambda selects the λ = (n/K)² heuristic.
	AutoLambda bool
	// MaxIter bounds round-robin iterations; zero means DefaultMaxIter.
	MaxIter int
	// Tol, when positive, additionally stops the run once the
	// objective improves by less than Tol between iterations (the
	// engine's shared policy, identical for K-Means and ZGYA). The
	// zero default keeps Algorithm 1's exact convergence: stop only
	// when a full sweep moves no object.
	Tol float64
	// Budget, when positive, stops the run at the first iteration
	// boundary after the wall-clock budget is spent.
	Budget time.Duration
	// Seed drives the random initialization.
	Seed int64
	// Init selects the initial clustering. The zero value is k-means++,
	// the start the K-Means and ZGYA baselines always use, so all three
	// begin from comparable configurations; the paper's Algorithm 1
	// random partition is engine.RandomPartition. Any value other than
	// the three engine methods is an error.
	Init engine.InitMethod
	// Weights optionally assigns per-attribute fairness weights w_S
	// (Eq. 23), keyed by sensitive attribute name. Attributes absent
	// from the map get weight 1. Negative or non-finite weights are an
	// error.
	Weights map[string]float64
	// Parallelism selects the sweep execution mode. Zero (the default)
	// runs the paper's strictly sequential Algorithm 1. A positive
	// value scores candidate moves with that many worker goroutines
	// against per-batch frozen statistics, applying accepted moves
	// sequentially; any negative value (see ParallelismAuto) uses
	// GOMAXPROCS workers. Results are deterministic and identical for
	// every Parallelism >= 1, but may differ from the sequential sweep
	// (see the package docs, "Parallel sweeps").
	Parallelism int
	// RecordHistory, when set, stores per-iteration objective values in
	// Result.History (used by the λ-sweep figures and by tests).
	RecordHistory bool
	// Observer, when non-nil, receives per-iteration statistics
	// (moves, objective, elapsed wall-clock) as the run progresses —
	// the engine's trace hook, used by the CLIs' -trace flags.
	Observer engine.Observer

	// naiveKernel routes scoring through the per-value reference
	// kernel instead of the O(1) aggregate closed forms. Test-only:
	// parity tests and benchmarks in this package compare the two.
	naiveKernel bool
	// noSkip turns the candidate skip bound off (see fairStats, "Skip
	// bound"), so bestMove scores every candidate. Test-only:
	// FuzzFitContracts compares the two bit for bit.
	noSkip bool
	// initAssign, when non-nil, replaces Init with this starting
	// assignment (length n, clusters in [0, K)). Test-only: parity
	// tests need two runs to start from the same partition.
	initAssign []int
}

// ParallelismAuto is a Config.Parallelism value selecting GOMAXPROCS
// worker goroutines.
const ParallelismAuto = -1

// DefaultLambda returns the paper's λ heuristic (|X|/k)² (Section 5.4).
func DefaultLambda(n, k int) float64 {
	r := float64(n) / float64(k)
	return r * r
}

// IterStats records the objective decomposition after one round-robin
// iteration.
type IterStats struct {
	Iteration int
	// Moves is the number of objects that changed cluster this iteration.
	Moves int
	// KMeansTerm is the SSE over N attributes (first term of Eq. 1).
	KMeansTerm float64
	// FairnessTerm is deviation_S(C, X) (Eq. 7 / Eq. 22), unweighted
	// by λ.
	FairnessTerm float64
	// Objective is KMeansTerm + λ·FairnessTerm.
	Objective float64
}

// Result is a completed FairKM clustering.
type Result struct {
	// Assign maps each row to its cluster in [0, K).
	Assign []int
	// Centroids are cluster means over the feature space; empty
	// clusters have zero vectors. For weighted runs these are weighted
	// means.
	Centroids [][]float64
	// Sizes are per-cluster row cardinalities (summary rows, for
	// weighted runs).
	Sizes []int
	// Masses are per-cluster total weights — how many original points
	// each cluster represents. Nil for unweighted runs (where it would
	// equal Sizes).
	Masses []float64
	// KMeansTerm, FairnessTerm and Objective decompose the final
	// objective value; Objective = KMeansTerm + λ·FairnessTerm.
	KMeansTerm   float64
	FairnessTerm float64
	Objective    float64
	// Lambda is the λ actually used (after the AutoLambda heuristic).
	Lambda float64
	// Iterations is the number of full round-robin passes executed.
	Iterations int
	// Converged reports whether a full pass completed with no moves.
	Converged bool
	// TotalMoves counts assignment changes across all iterations.
	TotalMoves int
	// History holds per-iteration stats when Config.RecordHistory is set.
	History []IterStats
}

// K returns the number of clusters in the result.
func (r *Result) K() int { return len(r.Centroids) }

// Predict assigns a new feature vector to the nearest cluster centroid,
// the standard deployment rule for K-Means-family models: it is
// distance-only and ignores the fairness term. It scores with
// stats.NearestCentroidScan exactly as model.Model.Assign scores a
// served row, and panics if x's dimensionality differs from the
// training features.
func (r *Result) Predict(x []float64) int {
	if len(r.Centroids) == 0 {
		panic("fairkm: Predict on an empty result")
	}
	if len(x) != len(r.Centroids[0]) {
		panic(fmt.Sprintf("fairkm: Predict with %d features, trained on %d", len(x), len(r.Centroids[0])))
	}
	best, _ := stats.NearestCentroidScan(x, r.Centroids)
	return best
}

// Validate reports the first reason Run (or RunWeighted, whose weights
// it does not check) would reject cfg on ds, so a caller can refuse a
// bad invocation before it creates any output.
func (cfg Config) Validate(ds *dataset.Dataset) error {
	if ds == nil {
		return errors.New("fairkm: nil dataset")
	}
	if err := ds.Validate(); err != nil {
		return fmt.Errorf("fairkm: %w", err)
	}
	n := ds.N()
	if n == 0 {
		return errors.New("fairkm: empty dataset")
	}
	if cfg.K < 1 || cfg.K > n {
		return fmt.Errorf("fairkm: K=%d out of range [1,%d]", cfg.K, n)
	}
	if cfg.Lambda < 0 || !finite(cfg.Lambda) {
		return fmt.Errorf("fairkm: lambda %v must be finite and non-negative", cfg.Lambda)
	}
	if cfg.Tol < 0 || !finite(cfg.Tol) {
		return fmt.Errorf("fairkm: tolerance %v must be finite and non-negative", cfg.Tol)
	}
	if cfg.Init < engine.KMeansPlusPlus || cfg.Init > engine.RandomPoints {
		return fmt.Errorf("fairkm: unknown initializer %v", cfg.Init)
	}
	for name, w := range cfg.Weights {
		if w < 0 || !finite(w) {
			return fmt.Errorf("fairkm: weight %v for attribute %q must be finite and non-negative", w, name)
		}
		if ds.SensitiveByName(name) == nil {
			return fmt.Errorf("fairkm: weight for unknown sensitive attribute %q", name)
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
