package engine

import (
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

// scripted is a fake objective whose per-sweep behaviour is fully
// scripted: during sweep s, rows 0..movesPer[s]-1 want to move to the
// next cluster; Value returns values[s] after sweep s.
type scripted struct {
	n, k     int
	assign   []int
	movesPer []int
	values   []float64
	sweeps   int
}

func newScripted(n, k int, movesPer []int, values []float64) *scripted {
	return &scripted{n: n, k: k, assign: make([]int, n), movesPer: movesPer, values: values}
}

func (s *scripted) N() int            { return s.n }
func (s *scripted) K() int            { return s.k }
func (s *scripted) Current(i int) int { return s.assign[i] }
func (s *scripted) BestMove(i, from int) int {
	to := from
	if s.sweeps < len(s.movesPer) && i < s.movesPer[s.sweeps] {
		to = (from + 1) % s.k
	}
	if i == s.n-1 {
		s.sweeps++
	}
	return to
}
func (s *scripted) Delta(i, from, to int) float64 { return -1 }
func (s *scripted) Move(i, from, to int)          { s.assign[i] = to }
func (s *scripted) Value() float64 {
	idx := s.sweeps - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.values) {
		idx = len(s.values) - 1
	}
	return s.values[idx]
}

func TestSolveStopsOnNoMoves(t *testing.T) {
	obj := newScripted(5, 3, []int{3, 1, 0}, []float64{10, 9, 9})
	res := Solve(obj, NewFullSweep(obj), Config{MaxIter: 30})
	if !res.Converged || res.Reason != StopNoMoves {
		t.Fatalf("want no-moves convergence, got converged=%v reason=%v", res.Converged, res.Reason)
	}
	if res.Iterations != 3 || res.TotalMoves != 4 {
		t.Fatalf("want 3 iterations / 4 moves, got %d / %d", res.Iterations, res.TotalMoves)
	}
}

func TestSolveStopsOnMaxIter(t *testing.T) {
	obj := newScripted(5, 3, []int{1, 1, 1, 1, 1, 1, 1, 1}, []float64{1})
	res := Solve(obj, NewFullSweep(obj), Config{MaxIter: 5})
	if res.Converged || res.Reason != StopMaxIter || res.Iterations != 5 {
		t.Fatalf("want max-iter stop at 5, got converged=%v reason=%v iters=%d",
			res.Converged, res.Reason, res.Iterations)
	}
}

func TestSolveStopsOnTol(t *testing.T) {
	// Objective drops 100 -> 50 -> 49.99995: the third improvement
	// (5e-5) is below Tol=1e-3 even though moves continue.
	obj := newScripted(5, 3, []int{1, 1, 1, 1, 1, 1}, []float64{100, 50, 49.99995, 49.9999, 49.9998})
	res := Solve(obj, NewFullSweep(obj), Config{MaxIter: 30, Tol: 1e-3})
	if !res.Converged || res.Reason != StopTol {
		t.Fatalf("want Tol convergence, got converged=%v reason=%v", res.Converged, res.Reason)
	}
	if res.Iterations != 3 {
		t.Fatalf("want stop at iteration 3, got %d", res.Iterations)
	}
}

func TestSolveStopsOnBudget(t *testing.T) {
	obj := newScripted(5, 3, []int{1, 1, 1, 1, 1, 1}, []float64{1})
	res := Solve(obj, NewFullSweep(obj), Config{MaxIter: 30, Budget: time.Nanosecond})
	if res.Converged || res.Reason != StopBudget {
		t.Fatalf("want budget stop, got converged=%v reason=%v", res.Converged, res.Reason)
	}
	if res.Iterations != 1 {
		t.Fatalf("a started solve must complete at least one sweep; stopped at %d", res.Iterations)
	}
}

func TestSolveObserverSeesEveryIteration(t *testing.T) {
	obj := newScripted(4, 2, []int{2, 1, 0}, []float64{30, 20, 20})
	var events []IterEvent
	res := Solve(obj, NewFullSweep(obj), Config{MaxIter: 30, Observer: func(ev IterEvent) {
		events = append(events, ev)
	}})
	if len(events) != res.Iterations {
		t.Fatalf("observer saw %d events for %d iterations", len(events), res.Iterations)
	}
	wantMoves := []int{2, 1, 0}
	wantObj := []float64{30, 20, 20}
	for i, ev := range events {
		if ev.Iteration != i+1 || ev.Moves != wantMoves[i] || ev.Objective != wantObj[i] {
			t.Fatalf("event %d = %+v, want iteration %d moves %d objective %v",
				i, ev, i+1, wantMoves[i], wantObj[i])
		}
	}
}

// lineObj is a miniature real objective — 1-D K-Means under coordinate
// descent with live sufficient statistics — used to exercise the sweep
// strategies end to end.
type lineObj struct {
	xs     []float64
	k      int
	assign []int
	sum    []float64
	cnt    []int
}

func newLineObj(xs []float64, k int, assign []int) *lineObj {
	o := &lineObj{xs: xs, k: k, assign: assign, sum: make([]float64, k), cnt: make([]int, k)}
	for i, c := range assign {
		o.sum[c] += xs[i]
		o.cnt[c]++
	}
	return o
}

func (o *lineObj) N() int            { return len(o.xs) }
func (o *lineObj) K() int            { return o.k }
func (o *lineObj) Current(i int) int { return o.assign[i] }

func (o *lineObj) delta(i, from, to int) float64 {
	x := o.xs[i]
	d := 0.0
	if m := o.cnt[from]; m > 1 {
		mu := o.sum[from] / float64(m)
		d -= float64(m) / float64(m-1) * (x - mu) * (x - mu)
	}
	if m := o.cnt[to]; m > 0 {
		mu := o.sum[to] / float64(m)
		d += float64(m) / float64(m+1) * (x - mu) * (x - mu)
	}
	return d
}

func (o *lineObj) BestMove(i, from int) int {
	best, bestD := from, 0.0
	for c := 0; c < o.k; c++ {
		if c == from {
			continue
		}
		if d := o.delta(i, from, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

func (o *lineObj) Delta(i, from, to int) float64 { return o.delta(i, from, to) }

func (o *lineObj) Move(i, from, to int) {
	o.sum[from] -= o.xs[i]
	o.cnt[from]--
	o.sum[to] += o.xs[i]
	o.cnt[to]++
	o.assign[i] = to
}

func (o *lineObj) Value() float64 {
	v := 0.0
	for i, c := range o.assign {
		if o.cnt[c] == 0 {
			continue
		}
		mu := o.sum[c] / float64(o.cnt[c])
		v += (o.xs[i] - mu) * (o.xs[i] - mu)
	}
	return v
}

type lineSnap struct {
	live *lineObj
	obj  lineObj
}

func (o *lineObj) NewSnapshot() Snapshot {
	return &lineSnap{live: o, obj: lineObj{xs: o.xs, k: o.k, sum: make([]float64, o.k), cnt: make([]int, o.k)}}
}

func (s *lineSnap) Freeze() {
	copy(s.obj.sum, s.live.sum)
	copy(s.obj.cnt, s.live.cnt)
}

func (s *lineSnap) BestMove(i, from int) int { return s.obj.BestMove(i, from) }

func lineFixture(seed int64, n, k int) *lineObj {
	rng := stats.NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Gaussian(float64(i%k)*10, 3)
	}
	assign := make([]int, n)
	RandomPartitionAssign(rng, assign, k)
	return newLineObj(xs, k, assign)
}

// TestFrozenSweepWorkerDeterminism: the parallelism contract — results
// are bit-identical for every worker count.
func TestFrozenSweepWorkerDeterminism(t *testing.T) {
	var ref *lineObj
	var refRes Result
	for _, workers := range []int{1, 2, 3, 8, 33} {
		obj := lineFixture(7, 500, 6)
		sw := NewFrozenSweep(obj, FrozenOpts{Workers: workers, Batch: 64, Revalidate: true})
		res := Solve(obj, sw, Config{MaxIter: 50})
		if ref == nil {
			ref, refRes = obj, res
			continue
		}
		if res.Iterations != refRes.Iterations || res.TotalMoves != refRes.TotalMoves {
			t.Fatalf("workers=%d trajectory diverged: iters %d vs %d, moves %d vs %d",
				workers, res.Iterations, refRes.Iterations, res.TotalMoves, refRes.TotalMoves)
		}
		for i := range obj.assign {
			if obj.assign[i] != ref.assign[i] {
				t.Fatalf("workers=%d: assignment mismatch at row %d", workers, i)
			}
		}
	}
}

// TestFrozenSweepRevalidationMonotone: with Revalidate, the objective
// never increases across sweeps even though batches score against
// stale statistics.
func TestFrozenSweepRevalidationMonotone(t *testing.T) {
	obj := lineFixture(11, 400, 5)
	sw := NewFrozenSweep(obj, FrozenOpts{Workers: 4, Batch: 32, Revalidate: true})
	prev := math.Inf(1)
	Solve(obj, sw, Config{MaxIter: 50, Observer: func(ev IterEvent) {
		if ev.Objective > prev*(1+1e-12) {
			t.Fatalf("objective rose at iteration %d: %v -> %v", ev.Iteration, prev, ev.Objective)
		}
		prev = ev.Objective
	}})
}

// lloydLine adapts lineObj to Lloyd semantics: its snapshot scores
// nearest frozen (non-empty) mean, recomputed from scratch on Freeze —
// the shape the kmeans port uses.
type lloydLine struct{ *lineObj }

func (l lloydLine) NewSnapshot() Snapshot {
	return &nearestSnap{live: l.lineObj, sum: make([]float64, l.k), cnt: make([]int, l.k)}
}

type nearestSnap struct {
	live *lineObj
	sum  []float64
	cnt  []int
}

func (s *nearestSnap) Freeze() {
	for c := range s.sum {
		s.sum[c], s.cnt[c] = 0, 0
	}
	for i, c := range s.live.assign {
		s.sum[c] += s.live.xs[i]
		s.cnt[c]++
	}
}

func (s *nearestSnap) BestMove(i, from int) int {
	best, bestD := from, math.Inf(1)
	for c := range s.sum {
		if s.cnt[c] == 0 {
			continue
		}
		mu := s.sum[c] / float64(s.cnt[c])
		if d := (s.live.xs[i] - mu) * (s.live.xs[i] - mu); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// TestLloydSweepMatchesReference: NewLloydSweep reproduces the
// classic assign-to-frozen-means iteration exactly.
func TestLloydSweepMatchesReference(t *testing.T) {
	obj := lineFixture(3, 300, 4)
	ref := append([]int(nil), obj.assign...)
	xs := obj.xs

	res := Solve(obj, NewLloydSweep(lloydLine{obj}, 3), Config{MaxIter: 40})

	// Reference Lloyd on a copy of the same start.
	iters := 0
	for ; iters < 40; iters++ {
		sum := make([]float64, obj.k)
		cnt := make([]int, obj.k)
		for i, c := range ref {
			sum[c] += xs[i]
			cnt[c]++
		}
		changed := 0
		for i := range xs {
			best, bestD := ref[i], math.Inf(1)
			for c := 0; c < obj.k; c++ {
				if cnt[c] == 0 {
					continue
				}
				mu := sum[c] / float64(cnt[c])
				if d := (xs[i] - mu) * (xs[i] - mu); d < bestD {
					best, bestD = c, d
				}
			}
			if best != ref[i] {
				ref[i] = best
				changed++
			}
		}
		if changed == 0 {
			iters++
			break
		}
	}
	if res.Iterations != iters {
		t.Fatalf("engine Lloyd took %d iterations, reference %d", res.Iterations, iters)
	}
	for i := range ref {
		if obj.assign[i] != ref[i] {
			t.Fatalf("assignment mismatch at row %d: %d vs reference %d", i, obj.assign[i], ref[i])
		}
	}
}

// batchCounter wraps lineObj to count batch-view refreshes.
type batchCounter struct {
	*lineObj
	refreshes int
}

func (b *batchCounter) RefreshBatchView()             { b.refreshes++ }
func (b *batchCounter) BestMoveBatch(i, from int) int { return b.BestMove(i, from) }

func TestMiniBatchRefreshCadence(t *testing.T) {
	obj := &batchCounter{lineObj: lineFixture(5, 10, 2)}
	sw := NewMiniBatchSweep(obj, 3)
	sw.Sweep()
	// One refresh at sweep start plus one after rows 3, 6 and 9.
	if obj.refreshes != 4 {
		t.Fatalf("10 rows at batch 3: want 4 refreshes per sweep, got %d", obj.refreshes)
	}
}

func TestRandomPartitionAssignRepairsEmptyClusters(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		rng := stats.NewRNG(seed)
		assign := make([]int, 9)
		k := 7 // k close to n: raw uniform assignment leaves empties often
		RandomPartitionAssign(rng, assign, k)
		sizes := make([]int, k)
		for _, c := range assign {
			if c < 0 || c >= k {
				t.Fatalf("seed %d: cluster %d out of range", seed, c)
			}
			sizes[c]++
		}
		for c, s := range sizes {
			if s == 0 {
				t.Fatalf("seed %d: cluster %d left empty after repair", seed, c)
			}
		}
	}
}

func TestInitAssignmentDeterminism(t *testing.T) {
	rngData := stats.NewRNG(9)
	features := make([][]float64, 40)
	for i := range features {
		features[i] = []float64{rngData.Gaussian(0, 1), rngData.Gaussian(0, 1)}
	}
	for _, m := range []InitMethod{KMeansPlusPlus, RandomPartition, RandomPoints} {
		a := InitAssignmentWeighted(features, nil, 5, m, stats.NewRNG(4))
		b := InitAssignmentWeighted(features, nil, 5, m, stats.NewRNG(4))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: nondeterministic assignment at row %d", m, i)
			}
		}
		for i, c := range a {
			if c < 0 || c >= 5 {
				t.Fatalf("%v: row %d assigned out-of-range cluster %d", m, i, c)
			}
		}
	}
}
