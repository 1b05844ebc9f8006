package engine

import "sync"

// Sweeper performs one full pass over the rows of its objective,
// applying improving moves, and returns how many rows changed cluster.
// A Sweeper is bound to one objective at construction so it can hold
// reusable buffers (snapshots, proposal slices) across sweeps.
type Sweeper interface {
	Sweep() int
}

// NewFullSweep returns the paper's strictly sequential round-robin
// sweep (Algorithm 1): each row's best move is scored against live
// statistics and applied immediately, so every decision sees all
// earlier ones.
func NewFullSweep(obj Objective) Sweeper {
	return &fullSweep{obj: obj}
}

type fullSweep struct{ obj Objective }

func (s *fullSweep) Sweep() int {
	obj := s.obj
	n := obj.N()
	moves := 0
	for i := 0; i < n; i++ {
		from := obj.Current(i)
		if to := obj.BestMove(i, from); to != from {
			obj.Move(i, from, to)
			moves++
		}
	}
	return moves
}

// DefaultFrozenBatch is the frozen-statistics batch size of parallel
// sweeps when FrozenOpts.Batch doesn't override it. Smaller batches
// keep statistics fresher (fewer stale proposals rejected at apply
// time); larger ones amortize the snapshot copy and goroutine handoff.
const DefaultFrozenBatch = 1024

// FrozenOpts parameterizes a frozen-statistics sweep.
type FrozenOpts struct {
	// Workers is the number of scoring goroutines; values < 1 mean 1.
	Workers int
	// Batch is the frozen-statistics batch size; <= 0 means
	// DefaultFrozenBatch.
	Batch int
	// Revalidate re-scores each accepted proposal against the live
	// statistics before applying it (Objective.Delta < 0), keeping
	// descent monotone. Leave it unset only when unconditional
	// application is the intended semantics (Lloyd iteration).
	Revalidate bool
}

// NewFrozenSweep returns the frozen-statistics parallel sweep
// described in the package docs ("Parallelism contract"): batches
// scored concurrently against a snapshot, moves applied sequentially
// in row order. Results are deterministic and bit-identical for every
// worker count.
func NewFrozenSweep(obj SnapshotObjective, opts FrozenOpts) Sweeper {
	batch := opts.Batch
	if batch <= 0 {
		batch = DefaultFrozenBatch
	}
	if batch > obj.N() {
		batch = obj.N()
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	return &frozenSweep{
		obj:        obj,
		snap:       obj.NewSnapshot(),
		proposals:  make([]int, batch),
		workers:    workers,
		batch:      batch,
		revalidate: opts.Revalidate,
	}
}

// NewLloydSweep returns classical Lloyd iteration expressed as a
// frozen sweep: one batch spanning the whole dataset, scored against
// statistics (for K-Means: centroids) frozen at the iteration start,
// with every proposal applied unconditionally. This is exactly the
// assign-then-recompute loop of textbook K-Means, and it parallelizes
// over workers with bit-identical results because scoring against a
// frozen view is pure.
func NewLloydSweep(obj SnapshotObjective, workers int) Sweeper {
	return NewFrozenSweep(obj, FrozenOpts{Workers: workers, Batch: obj.N(), Revalidate: false})
}

type frozenSweep struct {
	obj        SnapshotObjective
	snap       Snapshot
	proposals  []int
	workers    int
	batch      int
	revalidate bool
}

func (s *frozenSweep) Sweep() int {
	obj := s.obj
	n := obj.N()
	moves := 0
	for b0 := 0; b0 < n; b0 += s.batch {
		b1 := min(b0+s.batch, n)
		s.snap.Freeze()

		span := b1 - b0
		workers := min(s.workers, span)
		chunk := (span + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := b0 + w*chunk
			if lo >= b1 {
				break
			}
			hi := min(lo+chunk, b1)
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					// Current(i) is stable during the scoring phase;
					// the snapshot is read-only.
					s.proposals[i-b0] = s.snap.BestMove(i, obj.Current(i))
				}
			}(lo, hi)
		}
		wg.Wait()

		for i := b0; i < b1; i++ {
			to := s.proposals[i-b0]
			from := obj.Current(i)
			if to == from {
				continue
			}
			// Earlier moves in this batch may have invalidated the
			// frozen-state proposal; under Revalidate, accept it only
			// if it still improves the live objective.
			if !s.revalidate || obj.Delta(i, from, to) < 0 {
				obj.Move(i, from, to)
				moves++
			}
		}
	}
	return moves
}
