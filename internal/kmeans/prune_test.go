package kmeans

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
)

// comparePrunedFull runs the same configuration with pruning (default)
// and with Config.fullScan and requires bit-identical results:
// assignments (including ties), iteration counts, convergence flags,
// centroid bits and objective bits.
func comparePrunedFull(t *testing.T, name string, features [][]float64, weights []float64, cfg Config) {
	t.Helper()
	run := func(fullScan bool) *Result {
		c := cfg
		c.fullScan = fullScan
		var r *Result
		var err error
		if weights == nil {
			r, err = Run(features, c)
		} else {
			r, err = RunWeighted(features, weights, c)
		}
		if err != nil {
			t.Fatalf("%s (fullScan=%v): %v", name, fullScan, err)
		}
		return r
	}
	ref := run(true)
	got := run(false)
	if got.Iterations != ref.Iterations || got.Converged != ref.Converged {
		t.Errorf("%s: iterations %d/%v pruned vs %d/%v full", name, got.Iterations, got.Converged, ref.Iterations, ref.Converged)
	}
	for i := range ref.Assign {
		if got.Assign[i] != ref.Assign[i] {
			t.Fatalf("%s: assign[%d] = %d pruned, %d full scan", name, i, got.Assign[i], ref.Assign[i])
		}
	}
	if math.Float64bits(got.Objective) != math.Float64bits(ref.Objective) {
		t.Errorf("%s: objective bits differ: %v pruned vs %v full", name, got.Objective, ref.Objective)
	}
	for c := range ref.Centroids {
		for j := range ref.Centroids[c] {
			if math.Float64bits(got.Centroids[c][j]) != math.Float64bits(ref.Centroids[c][j]) {
				t.Fatalf("%s: centroid[%d][%d] bits differ", name, c, j)
			}
		}
	}
}

// TestPrunedParityGrid is the pruned-vs-naive contract across
// k × dim × seed × weighting × Parallelism: Hamerly pruning must be
// invisible in every output bit, for every worker count.
func TestPrunedParityGrid(t *testing.T) {
	for _, k := range []int{1, 3, 8, 25} {
		for _, dim := range []int{1, 2, 5, 8} {
			for _, seed := range []int64{1, 7} {
				features := blobFeatures(seed, 240, k, dim)
				weights := make([]float64, len(features))
				rng := stats.NewRNG(seed + 99)
				for i := range weights {
					weights[i] = 0.25 + 4*rng.Float64()
				}
				for _, par := range []int{0, 1, 2, 3, 8, -1} {
					cfg := Config{K: k, Seed: seed, Parallelism: par, MaxIter: 40}
					name := fmt.Sprintf("k%d_d%d_s%d_p%d", k, dim, seed, par)
					comparePrunedFull(t, name+"_unweighted", features, nil, cfg)
					comparePrunedFull(t, name+"_weighted", features, weights, cfg)
				}
			}
		}
	}
}

// TestPrunedParityAdversarial drives the tie cases that force the
// pruner's strict tests to degrade to the full scan: duplicate initial
// centroids (instant empty clusters + zero-vector centroids),
// duplicated rows, and an integer lattice where many rows are exactly
// equidistant to several centroids.
func TestPrunedParityAdversarial(t *testing.T) {
	// Integer lattice: 6×6 grid duplicated 3×, so exact cross-centroid
	// ties are the norm, not the exception.
	var lattice [][]float64
	for rep := 0; rep < 3; rep++ {
		for a := 0; a < 6; a++ {
			for b := 0; b < 6; b++ {
				lattice = append(lattice, []float64{float64(a), float64(b)})
			}
		}
	}
	for _, par := range []int{0, 3, -1} {
		comparePrunedFull(t, fmt.Sprintf("lattice_p%d", par), lattice, nil,
			Config{K: 4, Seed: 3, Parallelism: par, MaxIter: 30})

		// Duplicate initial centroids: centroids 0 and 1 are the same
		// point, so cluster 1 drains immediately and stays an empty
		// zero-vector centroid — itself a duplicate of any other empty.
		dup := [][]float64{{1, 1}, {1, 1}, {4, 0}, {0, 4}}
		comparePrunedFull(t, fmt.Sprintf("dupinit_p%d", par), lattice, nil,
			Config{K: 4, initCentroids: dup, Parallelism: par, MaxIter: 30})
	}
	// Weighted lattice with integer weights (still heavy with ties).
	w := make([]float64, len(lattice))
	for i := range w {
		w[i] = float64(1 + i%3)
	}
	comparePrunedFull(t, "lattice_weighted", lattice, w,
		Config{K: 5, Seed: 11, Parallelism: 2, MaxIter: 30})
}

// TestPruneBoundInvariants steps Lloyd manually and, after every
// iteration, checks the Hamerly invariants against exact distances for
// every row: u[i] ≥ d(x_i, c_assign) and l[i] ≤ min over the other
// centroids — and that pruning actually skipped scans once assignments
// settle.
func TestPruneBoundInvariants(t *testing.T) {
	// K over-provisioned vs the blob count forces cluster splitting, so
	// centroids drift for many iterations and the bound updates (not
	// just the first-scan seeding) carry the invariants.
	features := blobFeatures(5, 400, 3, 4)
	cfg := Config{K: 9, Seed: 5}
	obj := &lloyd{
		features: features,
		k:        cfg.K,
		assign:   initialAssign(features, nil, &cfg),
	}
	obj.prune = newPruner(features)
	sw := engine.NewLloydSweep(obj, 3)

	const relEps = 1e-9
	iters := 0
	for ; iters < 40; iters++ {
		moves := sw.Sweep()
		for i, x := range features {
			a := obj.assign[i]
			da := stats.Dist(x, obj.frozen[a])
			if obj.prune.u[i] < da-relEps*(1+da) {
				t.Fatalf("iter %d row %d: upper bound %v < true distance %v", iters, i, obj.prune.u[i], da)
			}
			minOther := math.Inf(1)
			for c := range obj.frozen {
				if c == a {
					continue
				}
				if d := stats.Dist(x, obj.frozen[c]); d < minOther {
					minOther = d
				}
			}
			if obj.prune.l[i] > minOther+relEps*(1+minOther) {
				t.Fatalf("iter %d row %d: lower bound %v > min other distance %v", iters, i, obj.prune.l[i], minOther)
			}
		}
		if moves == 0 {
			break
		}
	}
	n := int64(len(features))
	total := n * int64(iters+1)
	scans := obj.prune.Scans()
	if scans >= total {
		t.Fatalf("pruner scanned %d of %d row-iterations: never pruned", scans, total)
	}
	t.Logf("pruner: %d full scans over %d row-iterations (%.1f%%)", scans, total, 100*float64(scans)/float64(total))
}

// TestPrunedMatchesScanPerRow cross-checks bestMove directly against
// stats.NearestCentroidScan for every row of every iteration (not just
// the final partition): the pruner must return the identical index,
// tie cases included.
func TestPrunedMatchesScanPerRow(t *testing.T) {
	features := blobFeatures(9, 300, 2, 3)
	cfg := Config{K: 7, Seed: 9}
	obj := &lloyd{
		features: features,
		k:        cfg.K,
		assign:   initialAssign(features, nil, &cfg),
	}
	obj.prune = newPruner(features)
	sw := engine.NewLloydSweep(obj, 1)
	for iter := 0; iter < 25; iter++ {
		moves := sw.Sweep()
		// obj.frozen now holds the centroids this sweep scored against;
		// replay the decision for every row from the post-sweep state.
		for i := range features {
			want, _ := stats.NearestCentroidScan(features[i], obj.frozen)
			if obj.assign[i] != want {
				t.Fatalf("iter %d row %d: pruned sweep assigned %d, naive rule says %d", iter, i, obj.assign[i], want)
			}
		}
		if moves == 0 {
			break
		}
	}
}
