// Package kmeans implements classical K-Means clustering (Lloyd's
// algorithm) with k-means++ and random initialization.
//
// In this repository it plays two roles: it is the S-blind baseline
// "K-Means(N)" from the paper's evaluation (Section 5.3), and Stats
// holds the K-Means term's sufficient statistics (counts, masses,
// feature sums, cached means, Σw‖x‖²) with their closed-form move
// deltas, SSE, centroids and frozen copies, which FairKM
// (internal/core) and ZGYA (internal/zgya) both score that term with.
// Initialization lives in the engine and is shared by all three
// solvers.
//
// Since the descent-engine refactor the package is a thin objective
// over internal/engine: Lloyd iteration is the engine's frozen sweep
// with one batch spanning the whole dataset (score every point against
// centroids frozen at the iteration start, apply all reassignments,
// recompute). Initialization, convergence policies (zero-moves, Tol,
// MaxIter, wall-clock budget), parallel scoring and the per-iteration
// observer hook all come from the engine and behave identically across
// FairKM, K-Means and ZGYA; see DESIGN.md.
//
// There is one Lloyd objective and one driver: Run is RunWeighted with
// nil weights. Both call the same driver, in which nil weights mean
// unit weights throughout (centroid means, SSE, move deltas and the
// k-means++ seeding).
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/stats"
)

// InitMethod selects how initial clusters are chosen. It is the
// engine's shared initializer selector; the constants re-export
// engine's so existing call sites keep working.
type InitMethod = engine.InitMethod

const (
	// KMeansPlusPlus picks initial centroids with the k-means++
	// D²-weighting scheme (Arthur & Vassilvitskii 2007). Zero value:
	// the default for every solver in this repository.
	KMeansPlusPlus = engine.KMeansPlusPlus
	// RandomPartition assigns every point to a uniformly random cluster
	// (with empty-cluster repair), matching "Initialize k clusters
	// randomly" in FairKM's Algorithm 1.
	RandomPartition = engine.RandomPartition
	// RandomPoints picks k distinct data points as initial centroids.
	RandomPoints = engine.RandomPoints
)

// Config parameterizes a K-Means run.
type Config struct {
	// K is the number of clusters; required, 1 <= K <= n.
	K int
	// MaxIter bounds Lloyd iterations. Zero means the default of 100.
	MaxIter int
	// Seed drives initialization.
	Seed int64
	// Init selects the initialization method.
	Init InitMethod
	// InitCentroids, when non-nil, overrides Init with explicit initial
	// centroids (length K); the Seed is then not consumed. Used for
	// warm starts (e.g. refining a streaming solve) and by the
	// weighted/duplicated parity tests, which need both runs to start
	// from the same configuration.
	InitCentroids [][]float64
	// Tol stops iteration when the objective improves by less than Tol
	// between iterations. Zero — the default — means exact convergence
	// (no change in assignments), the same policy FairKM and ZGYA
	// default to.
	Tol float64
	// Budget, when positive, stops the run at the first iteration
	// boundary after the wall-clock budget is spent.
	Budget time.Duration
	// Parallelism is the number of scoring workers per Lloyd
	// iteration: 0 or 1 scores sequentially, n > 1 uses n goroutines,
	// any negative value uses GOMAXPROCS. Because Lloyd scoring
	// against frozen centroids is pure, results are bit-identical for
	// every setting.
	Parallelism int
	// Observer, when non-nil, receives per-iteration statistics
	// (moves, objective, elapsed wall-clock).
	Observer engine.Observer

	// fullScan disables Hamerly triangle-inequality pruning: every row
	// is scored with the naive k-way centroid scan each iteration. The
	// pruned default is bit-identical to this path (assignments,
	// iteration counts and objective bits — pinned by prune_test.go);
	// it exists as the test/benchmark reference, not as a correctness
	// knob.
	fullScan bool
}

// DefaultMaxIter is used when Config.MaxIter is zero.
const DefaultMaxIter = 100

// Result is a completed clustering.
type Result struct {
	// Assign maps each row to its cluster in [0, K).
	Assign []int
	// Centroids holds the K cluster means over the feature space.
	// Empty clusters have zero-vector centroids.
	Centroids [][]float64
	// Sizes holds per-cluster cardinalities.
	Sizes []int
	// Objective is the final K-Means SSE (Eq. 24 in the paper).
	Objective float64
	// Iterations is the number of Lloyd iterations executed.
	Iterations int
	// Converged reports whether assignments stabilized (or the Tol
	// policy fired) before MaxIter.
	Converged bool
}

// K returns the number of clusters in the result.
func (r *Result) K() int { return len(r.Centroids) }

// lloyd is the K-Means objective for the descent engine: assignments
// plus centroids frozen at the iteration start. Scoring is the classic
// nearest-frozen-centroid rule, which is mass-independent (a weighted
// row goes wherever its w duplicates would all go); Move only updates
// the assignment — centroids are re-derived from scratch on every
// Freeze, exactly like the textbook recompute step. weights == nil
// means unit weights: Delta, Value and Freeze then skip the row mass
// entirely, so the unweighted trajectory keeps its own expressions.
type lloyd struct {
	features [][]float64
	weights  []float64 // nil → unit weights
	k        int
	assign   []int
	frozen   [][]float64
	prune    *pruner // nil → naive full scan every row
}

func (l *lloyd) N() int                   { return len(l.features) }
func (l *lloyd) K() int                   { return l.k }
func (l *lloyd) Current(i int) int        { return l.assign[i] }
func (l *lloyd) Move(i, from, to int)     { l.assign[i] = to }
func (l *lloyd) BestMove(i, from int) int { return l.nearest(i) }
func (l *lloyd) Delta(i, from, to int) float64 {
	x := l.features[i]
	d := stats.SqDist(x, l.frozen[to]) - stats.SqDist(x, l.frozen[from])
	if l.weights != nil {
		d *= l.weights[i]
	}
	return d
}

// Value is the (weighted) SSE against the frozen centroids — the
// quantity the Tol policy compares between iterations.
func (l *lloyd) Value() float64 { return WeightedSSE(l.features, l.weights, l.assign, l.frozen) }

// nearest applies the nearest-centroid rule (all K centroids are
// candidates, zero-vector centroids of empty clusters included; ties
// keep the lowest index) against the frozen centroids, through the
// Hamerly pruner when one is attached (the pruned result is
// bit-identical; see prune.go).
func (l *lloyd) nearest(i int) int {
	if l.prune != nil {
		return l.prune.bestMove(i, l.assign[i], l.frozen)
	}
	c, _ := stats.NearestCentroidScan(l.features[i], l.frozen)
	return c
}

// NewSnapshot: the frozen-centroid view IS the snapshot; Freeze
// recomputes it from the live assignment.
func (l *lloyd) NewSnapshot() engine.Snapshot { return (*lloydSnap)(l) }

type lloydSnap lloyd

func (s *lloydSnap) Freeze() {
	s.frozen = weightedCentroids(s.features, s.weights, s.assign, s.k)
	if s.prune != nil {
		s.prune.refresh(s.frozen, s.assign)
	}
}

func (s *lloydSnap) BestMove(i, from int) int { return (*lloyd)(s).nearest(i) }

// Run clusters the given feature rows. It returns an error for invalid
// configurations (K out of range, ragged or empty input). Run is
// RunWeighted with nil weights.
func Run(features [][]float64, cfg Config) (*Result, error) {
	return run(features, nil, cfg)
}

// run is the one Lloyd driver behind Run (weights nil) and RunWeighted.
func run(features [][]float64, weights []float64, cfg Config) (*Result, error) {
	n := len(features)
	if n == 0 {
		return nil, errors.New("kmeans: empty dataset")
	}
	for i, w := range weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("kmeans: weight[%d] = %v must be positive and finite", i, w)
		}
	}
	dim := len(features[0])
	for i, row := range features {
		if len(row) != dim {
			return nil, fmt.Errorf("kmeans: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	if cfg.K < 1 || cfg.K > n {
		return nil, fmt.Errorf("kmeans: K=%d out of range [1,%d]", cfg.K, n)
	}
	if err := validateInitCentroids(&cfg, dim); err != nil {
		return nil, err
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	obj := &lloyd{
		features: features,
		weights:  weights,
		k:        cfg.K,
		assign:   initialAssign(features, weights, &cfg),
	}
	if !cfg.fullScan {
		obj.prune = newPruner(features)
	}

	er := engine.Solve(obj, engine.NewLloydSweep(obj, cfg.Parallelism), engine.Config{
		MaxIter:  maxIter,
		Tol:      cfg.Tol,
		Budget:   cfg.Budget,
		Observer: cfg.Observer,
	})

	res := &Result{
		Assign:     obj.assign,
		Iterations: er.Iterations,
		Converged:  er.Converged,
	}
	res.Centroids = weightedCentroids(features, weights, obj.assign, cfg.K)
	res.Sizes = Sizes(obj.assign, cfg.K)
	res.Objective = WeightedSSE(features, weights, obj.assign, res.Centroids)
	return res, nil
}

// validateInitCentroids checks the InitCentroids override shape.
func validateInitCentroids(cfg *Config, dim int) error {
	if cfg.InitCentroids == nil {
		return nil
	}
	if len(cfg.InitCentroids) != cfg.K {
		return fmt.Errorf("kmeans: %d initial centroids for K=%d", len(cfg.InitCentroids), cfg.K)
	}
	for c, cen := range cfg.InitCentroids {
		if len(cen) != dim {
			return fmt.Errorf("kmeans: initial centroid %d has %d features, want %d", c, len(cen), dim)
		}
	}
	return nil
}

// initialAssign produces the starting partition (weights nil = unit
// weights): nearest-centroid against the InitCentroids override when
// present, otherwise the engine's initializer.
func initialAssign(features [][]float64, weights []float64, cfg *Config) []int {
	if cfg.InitCentroids != nil {
		assign := make([]int, len(features))
		assignAll(features, cfg.InitCentroids, assign)
		return assign
	}
	return engine.InitAssignmentWeighted(features, weights, cfg.K, cfg.Init, stats.NewRNG(cfg.Seed))
}

// assignAll reassigns every point to its nearest centroid, returning how
// many assignments changed.
func assignAll(features [][]float64, centroids [][]float64, assign []int) int {
	changed := 0
	for i, x := range features {
		best, _ := stats.NearestCentroidScan(x, centroids)
		if assign[i] != best {
			assign[i] = best
			changed++
		}
	}
	return changed
}

// Sizes returns per-cluster cardinalities for an assignment.
func Sizes(assign []int, k int) []int {
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	return sizes
}
