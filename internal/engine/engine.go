// Package engine is the shared descent orchestrator behind every
// clustering solver in this repository: FairKM (internal/core),
// K-Means (internal/kmeans) and ZGYA (internal/zgya).
//
// The architecture splits each solver into two levels (the
// shared-memory process-pool layering of Biborski et al., see
// PAPERS.md, adapted to in-process clustering):
//
//   - the OBJECTIVE level — solver-specific sufficient statistics that
//     can score and apply single-point cluster moves (the Objective
//     interface and its optional SnapshotObjective capability);
//   - the ORCHESTRATION level — everything about how a descent run is
//     scheduled and observed: initialization (init.go), sweep order,
//     batching and parallelism (sweep.go), convergence policy and
//     per-iteration observation (Solve).
//
// A solver supplies an Objective plus a Sweeper and gets, for free and
// identically to every other solver: the zero-moves / Tol / MaxIter /
// wall-clock-budget stopping rules, per-iteration observer hooks, and
// the frozen-statistics parallel sweep contract described below. There
// are three sweepers: the sequential full sweep (the paper's Algorithm
// 1), the frozen-statistics sweep, and Lloyd iteration.
//
// # Parallelism contract
//
// Frozen-statistics sweeps (NewFrozenSweep, NewLloydSweep) process
// points in fixed-size batches. Each batch is scored concurrently
// against a Snapshot frozen at the batch start, then accepted moves are
// applied sequentially in row order. Batch boundaries and per-point
// proposals are independent of the worker count, so results are
// bit-identical for every Workers >= 1. With Revalidate set, each
// proposal is re-scored against the live statistics before applying
// (Objective.Delta < 0), which keeps coordinate descent monotone even
// though in-batch proposals cannot see each other's moves; without it
// every proposal is applied unconditionally, which is exactly Lloyd
// iteration when the batch spans the whole dataset.
package engine

import (
	"math"
	"time"
)

// Objective is the solver level of the engine: the sufficient
// statistics of one clustering objective over a fixed dataset, able to
// score and apply moves of single points between clusters. Rows are
// indexed 0..N()-1, clusters 0..K()-1.
type Objective interface {
	// N returns the number of rows.
	N() int
	// K returns the number of clusters.
	K() int
	// Current returns row i's current cluster.
	Current(i int) int
	// BestMove returns the cluster minimizing the objective change of
	// moving row i out of cluster from, scored against live
	// statistics; it returns from itself when no move improves.
	BestMove(i, from int) int
	// Delta returns the exact objective change of moving row i from
	// cluster from to cluster to, against live statistics.
	Delta(i, from, to int) float64
	// Move applies the move, updating all statistics and Current(i).
	Move(i, from, to int)
	// Value returns the current total objective. The engine calls it
	// once per iteration at most (Tol convergence and observers); it
	// should be cheap relative to a sweep.
	Value() float64
}

// SnapshotObjective is implemented by objectives supporting
// frozen-statistics parallel sweeps.
type SnapshotObjective interface {
	Objective
	// NewSnapshot allocates a reusable snapshot buffer. The engine
	// alternates Freeze with concurrent BestMove calls; the two are
	// never concurrent with each other or with Move.
	NewSnapshot() Snapshot
}

// Snapshot is a read-only frozen view of an objective's statistics.
type Snapshot interface {
	// Freeze copies the live statistics into the snapshot.
	Freeze()
	// BestMove scores row i against the frozen statistics. It must be
	// safe for concurrent calls (the snapshot is not mutated).
	BestMove(i, from int) int
}

// IterEvent is the per-iteration record passed to observers.
type IterEvent struct {
	// Iteration counts sweeps, starting at 1.
	Iteration int
	// Moves is the number of points that changed cluster this sweep.
	Moves int
	// Objective is the total objective after the sweep. It is computed
	// only when an observer is installed or Tol is positive; see
	// Config.Observer.
	Objective float64
	// Elapsed is the wall-clock time since Solve started.
	Elapsed time.Duration
}

// Observer receives one IterEvent after every sweep, before
// convergence is evaluated (so the final, converging iteration is
// observed too). Observers run on the solving goroutine; slow
// observers slow the solve.
type Observer func(IterEvent)

// StopReason says which policy ended a Solve.
type StopReason int

const (
	// StopMaxIter: the iteration cap was reached with moves still
	// occurring.
	StopMaxIter StopReason = iota
	// StopNoMoves: a full sweep moved no point — the exact convergence
	// of Algorithm 1, and the default policy.
	StopNoMoves
	// StopTol: the objective improved by less than Tol between
	// consecutive iterations.
	StopTol
	// StopBudget: the wall-clock budget expired between iterations.
	StopBudget
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case StopMaxIter:
		return "max-iter"
	case StopNoMoves:
		return "no-moves"
	case StopTol:
		return "tol"
	case StopBudget:
		return "budget"
	default:
		return "unknown"
	}
}

// Config is the orchestration-level configuration of a Solve. The
// convergence policies compose: the run stops at whichever of
// zero-moves, Tol, MaxIter or Budget triggers first.
type Config struct {
	// MaxIter caps the number of sweeps; <= 0 means no cap (rely on
	// the other policies).
	MaxIter int
	// Tol, when positive, stops the run once the objective improves by
	// less than Tol between consecutive iterations. Zero — the default
	// everywhere in this repository — keeps the exact zero-moves
	// convergence of the paper's Algorithm 1.
	Tol float64
	// Budget, when positive, stops the run at the first iteration
	// boundary after the wall-clock budget is spent. A started sweep
	// always completes, and at least one sweep runs.
	Budget time.Duration
	// Observer, when non-nil, receives an IterEvent after every sweep.
	Observer Observer
}

// Result summarizes a completed Solve.
type Result struct {
	// Iterations is the number of sweeps executed.
	Iterations int
	// TotalMoves counts cluster changes across all sweeps.
	TotalMoves int
	// Converged reports whether a convergence policy (zero-moves or
	// Tol) ended the run, as opposed to the MaxIter or Budget caps.
	Converged bool
	// Reason is the specific policy that ended the run.
	Reason StopReason
	// Elapsed is the total wall-clock time of the solve.
	Elapsed time.Duration
}

// Solve runs coordinate descent (or Lloyd iteration, depending on the
// sweeper) to convergence under cfg's policies.
func Solve(obj Objective, sw Sweeper, cfg Config) Result {
	start := time.Now() //fairvet:ignore nodeterminism -- wall-clock feeds only the Budget stop policy and Elapsed telemetry, both documented as nondeterministic (Budget=0 in deterministic runs)
	needValue := cfg.Tol > 0 || cfg.Observer != nil
	prev := math.Inf(1)
	var res Result
	res.Reason = StopMaxIter
	for iter := 1; cfg.MaxIter <= 0 || iter <= cfg.MaxIter; iter++ {
		res.Iterations = iter
		moves := sw.Sweep()
		res.TotalMoves += moves
		var value float64
		if needValue {
			value = obj.Value()
		}
		if cfg.Observer != nil {
			//fairvet:ignore nodeterminism -- Elapsed is observer telemetry, never an input to the descent
			cfg.Observer(IterEvent{Iteration: iter, Moves: moves, Objective: value, Elapsed: time.Since(start)})
		}
		if moves == 0 {
			res.Converged = true
			res.Reason = StopNoMoves
			break
		}
		if cfg.Tol > 0 && prev-value < cfg.Tol {
			res.Converged = true
			res.Reason = StopTol
			break
		}
		prev = value
		//fairvet:ignore nodeterminism -- the wall-clock Budget stop is an explicitly nondeterministic policy, off by default
		if cfg.Budget > 0 && time.Since(start) >= cfg.Budget {
			res.Reason = StopBudget
			break
		}
	}
	res.Elapsed = time.Since(start) //fairvet:ignore nodeterminism -- Elapsed is result telemetry, not solver state
	return res
}
