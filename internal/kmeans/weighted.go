package kmeans

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/engine"
	"repro/internal/stats"
)

// RunWeighted clusters weighted points: the objective is
// Σ_i w_i·‖x_i − μ_{assign(i)}‖² and centroids are weighted means.
// It is the substrate for coreset-based clustering (internal/coreset),
// where each retained point stands for w_i original points. Weights
// must be positive and finite.
//
// RunWeighted is the same engine-driven Lloyd iteration as Run — same
// initializers (k-means++ D² sampling scaled by mass), same
// convergence policies, same frozen-sweep parallelism — with weighted
// centroid updates. Two parity contracts pin the semantics:
//
//   - unit weights reproduce Run bit-for-bit (assignments, iteration
//     count and objective bits), because every w·x with w = 1 is an
//     IEEE-754 no-op and the RNG stream is consumed identically;
//   - integer weights with Config.InitCentroids fixed match running
//     Run on the explicitly duplicated dataset from the same centroids
//     (Lloyd's assign and update steps are oblivious to whether mass
//     arrives as one weighted row or w duplicate rows).
//
// Both are enforced by weighted_test.go.
func RunWeighted(features [][]float64, weights []float64, cfg Config) (*Result, error) {
	n := len(features)
	if n == 0 {
		return nil, errors.New("kmeans: empty dataset")
	}
	if len(weights) != n {
		return nil, fmt.Errorf("kmeans: %d weights for %d points", len(weights), n)
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
	workers := cfg.Parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	obj := &lloydWeighted{
		features: features,
		weights:  weights,
		k:        cfg.K,
		assign:   initialAssign(features, weights, &cfg),
	}
	if !cfg.FullScan {
		obj.prune = newPruner(features)
	}

	er := engine.Solve(obj, engine.NewLloydSweep(obj, workers), engine.Config{
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

// lloydWeighted is the weighted K-Means objective for the descent
// engine: like lloyd, but Freeze recomputes weighted-mean centroids and
// Delta/Value carry each row's mass. Scoring (nearest frozen centroid)
// is mass-independent — a weighted row goes wherever its w duplicates
// would all go.
type lloydWeighted struct {
	features [][]float64
	weights  []float64
	k        int
	assign   []int
	frozen   [][]float64
	prune    *pruner // nil → naive full scan every row
}

func (l *lloydWeighted) N() int                   { return len(l.features) }
func (l *lloydWeighted) K() int                   { return l.k }
func (l *lloydWeighted) Current(i int) int        { return l.assign[i] }
func (l *lloydWeighted) Move(i, from, to int)     { l.assign[i] = to }
func (l *lloydWeighted) BestMove(i, from int) int { return l.nearest(i) }

// nearest mirrors lloyd.nearest: scoring is mass-independent, so the
// weighted path shares the pruner (bounds are plain Euclidean
// distances; weights never enter the nearest-centroid decision).
func (l *lloydWeighted) nearest(i int) int {
	if l.prune != nil {
		return l.prune.bestMove(i, l.assign[i], l.frozen)
	}
	c, _ := stats.NearestCentroidScan(l.features[i], l.frozen)
	return c
}
func (l *lloydWeighted) Delta(i, from, to int) float64 {
	x := l.features[i]
	return l.weights[i] * (stats.SqDist(x, l.frozen[to]) - stats.SqDist(x, l.frozen[from]))
}

// Value is the weighted SSE against the frozen centroids — the
// quantity the Tol policy compares between iterations.
func (l *lloydWeighted) Value() float64 {
	return WeightedSSE(l.features, l.weights, l.assign, l.frozen)
}

// NewSnapshot: the frozen-centroid view IS the snapshot; Freeze
// recomputes the weighted means from the live assignment.
func (l *lloydWeighted) NewSnapshot() engine.Snapshot { return (*lloydWeightedSnap)(l) }

type lloydWeightedSnap lloydWeighted

func (s *lloydWeightedSnap) Freeze() {
	s.frozen = weightedCentroids(s.features, s.weights, s.assign, s.k)
	if s.prune != nil {
		s.prune.refresh(s.frozen, s.assign)
	}
}

func (s *lloydWeightedSnap) BestMove(i, from int) int {
	return (*lloydWeighted)(s).nearest(i)
}

// weightedCentroids computes per-cluster weighted means; empty clusters
// get zero vectors. With unit weights it is bit-identical to
// computeCentroids (w·v multiplications are exact and the mass
// accumulates the same integer the row count would).
func weightedCentroids(features [][]float64, weights []float64, assign []int, k int) [][]float64 {
	dim := len(features[0])
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	mass := make([]float64, k)
	for i, x := range features {
		w := weights[i]
		c := assign[i]
		for j, v := range x {
			sums[c][j] += w * v
		}
		mass[c] += w
	}
	for c := range sums {
		if mass[c] > 0 {
			stats.Scale(sums[c], 1/mass[c])
		}
	}
	return sums
}

// WeightedSSE returns the weighted K-Means objective.
func WeightedSSE(features [][]float64, weights []float64, assign []int, centroids [][]float64) float64 {
	s := 0.0
	for i, x := range features {
		s += weights[i] * stats.SqDist(x, centroids[assign[i]])
	}
	return s
}
