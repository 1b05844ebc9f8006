package core

import (
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Run executes FairKM (Algorithm 1) on the dataset.
//
// Orchestration — initialization, sweep scheduling, parallelism,
// convergence policies and observation — is delegated to
// internal/engine; this package contributes the FairKM objective
// (state) and assembles the Result.
func Run(ds *dataset.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(ds); err != nil {
		return nil, err
	}
	return runWith(ds, cfg, nil)
}

// runWith is the shared driver behind Run and RunWeighted: rowW == nil
// is the paper's raw-point solve, otherwise every statistic is
// rowW-weighted (see state). cfg must already be validated.
func runWith(ds *dataset.Dataset, cfg Config, rowW []float64) (*Result, error) {
	lambda := cfg.Lambda
	if cfg.AutoLambda {
		if rowW == nil {
			lambda = DefaultLambda(ds.N(), cfg.K)
		} else {
			// The λ=(n/K)² heuristic with n the represented population:
			// a summary standing for W original points should solve at
			// the λ the full data would have used.
			r := stats.Sum(rowW) / float64(cfg.K)
			lambda = r * r
		}
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	var assign []int
	if cfg.initAssign != nil {
		assign = append([]int(nil), cfg.initAssign...)
	} else {
		assign = engine.InitAssignmentWeighted(ds.Features, rowW, cfg.K, cfg.Init, stats.NewRNG(cfg.Seed))
	}
	st := newState(ds, &cfg, lambda, assign, rowW)

	res := &Result{Lambda: lambda}
	var observer engine.Observer
	if cfg.RecordHistory || cfg.Observer != nil {
		observer = func(ev engine.IterEvent) {
			if cfg.RecordHistory {
				km := st.km.SSE()
				fair := st.fair.total()
				res.History = append(res.History, IterStats{
					Iteration:    ev.Iteration,
					Moves:        ev.Moves,
					KMeansTerm:   km,
					FairnessTerm: fair,
					Objective:    km + lambda*fair,
				})
			}
			if cfg.Observer != nil {
				cfg.Observer(ev)
			}
		}
	}

	er := engine.Solve(st, engine.NewSweep(st, cfg.Parallelism), engine.Config{
		MaxIter:  maxIter,
		Tol:      cfg.Tol,
		Budget:   cfg.Budget,
		Observer: observer,
	})

	res.Iterations = er.Iterations
	res.TotalMoves = er.TotalMoves
	res.Converged = er.Converged
	res.Assign = st.assign
	res.Centroids = st.km.Centroids()
	res.Sizes = append([]int(nil), st.km.Counts...)
	if rowW != nil {
		res.Masses = append([]float64(nil), st.km.Mass...)
	}
	res.KMeansTerm = st.km.SSE()
	res.FairnessTerm = st.fair.total()
	res.Objective = res.KMeansTerm + lambda*res.FairnessTerm
	return res, nil
}

// ---- engine.Objective ----

// N returns the number of rows.
func (st *state) N() int { return st.n }

// K returns the number of clusters.
func (st *state) K() int { return st.k }

// Current returns row i's cluster.
func (st *state) Current(i int) int { return st.assign[i] }

// BestMove scores row i against live statistics (Eq. 10).
func (st *state) BestMove(i, from int) int { return st.bestMove(i, from) }

// Delta returns the exact objective change of moving row i, against
// live statistics.
func (st *state) Delta(i, from, to int) float64 { return st.moveDelta(i, from, to) }

// Move applies the move (Sections 4.2.1–4.2.3 incremental updates).
func (st *state) Move(i, from, to int) { st.move(i, from, to) }

// Value returns the current objective O = SSE + λ·deviation.
func (st *state) Value() float64 { return st.km.SSE() + st.lambda*st.fair.total() }

// ---- engine.SnapshotObjective (frozen-statistics parallel sweeps) ----

// stateSnap is a reusable frozen copy of all mutable statistics,
// sharing the immutable ones with the live state.
type stateSnap struct {
	live   *state
	frozen *state
}

// NewSnapshot allocates the snapshot buffer.
func (st *state) NewSnapshot() engine.Snapshot {
	return &stateSnap{live: st, frozen: st.newFrozen()}
}

// Freeze copies the live statistics into the buffer.
func (s *stateSnap) Freeze() { s.live.freezeInto(s.frozen) }

// BestMove scores row i against the frozen statistics; safe for
// concurrent calls because the frozen state is read-only between
// freezes.
func (s *stateSnap) BestMove(i, from int) int { return s.frozen.bestMove(i, from) }

// bestMove returns the cluster minimizing the objective change δ(O) of
// Eq. 10 for row i, which currently sits in cluster from. It is the
// single scoring kernel behind every sweep strategy: the full sweep
// calls it on the live statistics, the frozen sweep on a snapshot.
// Ties keep the current cluster (δ = 0 for staying put).
//
//fairvet:hotpath
func (st *state) bestMove(i, from int) int {
	km, fair := &st.km, &st.fair
	// Leaving `from` costs the same regardless of destination; compute
	// those pieces once.
	dDevOut := fair.fairDelta(km, from, i, -1) - fair.devCache[from]
	kmOut := km.OutDelta(i, from)

	best := from
	bestDelta := 0.0
	for c := 0; c < st.k; c++ {
		if c == from {
			continue
		}
		dKM := kmOut + km.InDelta(i, c)
		dFair := dDevOut + (fair.fairDelta(km, c, i, +1) - fair.devCache[c])
		delta := dKM + st.lambda*dFair
		if delta < bestDelta {
			bestDelta = delta
			best = c
		}
	}
	return best
}
