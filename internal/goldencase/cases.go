// Package goldencase enumerates the frozen solver configurations whose
// trajectories are pinned by testdata/golden.json. The first 23 goldens
// were recorded against the pre-engine solvers (the hand-rolled loops of
// commit 9c464aa) on the internal/testfix fixtures; four FairKM corners
// (a non-unit-weight solve, ClusterWeightExponent 1,
// NoDomainNormalization, and mini-batching with numeric sensitive
// attributes) were appended later, recorded on the per-attribute
// aggregate kernel before it moved to the cluster-major slab. Two
// weighted K-Means runs (kmeans.RunWeighted on fractional weights)
// came last, recorded while the weighted Lloyd objective still had an
// unweighted twin. The golden test re-runs every case against the
// current solvers and requires bit-identical assignments and
// objectives. This is the contract that the internal/engine port — and
// any future orchestration or kernel change — is a pure refactor of the
// optimization trajectory.
package goldencase

import (
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/testfix"
	"repro/internal/zgya"
)

// Record is one pinned trajectory. Objective and Lambda are stored as
// IEEE-754 bit patterns so the JSON round-trip is exact.
type Record struct {
	Name       string `json:"name"`
	Assign     []int  `json:"assign"`
	Objective  uint64 `json:"objective_bits"`
	Lambda     uint64 `json:"lambda_bits,omitempty"`
	Iterations int    `json:"iterations"`
	Converged  bool   `json:"converged"`
	TotalMoves int    `json:"total_moves,omitempty"`
}

// Fixtures returns the three frozen datasets, keyed by the names used
// in case labels.
func Fixtures() map[string]*dataset.Dataset {
	return map[string]*dataset.Dataset{
		"synthA": testfix.Synth(21, 400, 6, 3, 0),
		"synthB": testfix.Synth(22, 300, 4, 2, 2),
		"adult":  testfix.Adult(11, 1500),
	}
}

// All runs every golden case against the current solvers and returns
// the records in a fixed order.
func All() ([]Record, error) {
	fx := Fixtures()
	var out []Record

	// fairKMWeighted runs a weighted solve when rowW is non-nil.
	fairKMWeighted := func(name, ds string, rowW []float64, cfg core.Config) error {
		var res *core.Result
		var err error
		if rowW == nil {
			res, err = core.Run(fx[ds], cfg)
		} else {
			res, err = core.RunWeighted(fx[ds], rowW, cfg)
		}
		if err != nil {
			return err
		}
		out = append(out, Record{
			Name:       "fairkm/" + ds + "/" + name,
			Assign:     res.Assign,
			Objective:  math.Float64bits(res.Objective),
			Lambda:     math.Float64bits(res.Lambda),
			Iterations: res.Iterations,
			Converged:  res.Converged,
			TotalMoves: res.TotalMoves,
		})
		return nil
	}
	fairKM := func(name, ds string, cfg core.Config) error {
		return fairKMWeighted(name, ds, nil, cfg)
	}
	// kMeansWeighted runs a weighted solve when rowW is non-nil.
	kMeansWeighted := func(name, ds string, rowW []float64, cfg kmeans.Config) error {
		var res *kmeans.Result
		var err error
		if rowW == nil {
			res, err = kmeans.Run(fx[ds].Features, cfg)
		} else {
			res, err = kmeans.RunWeighted(fx[ds].Features, rowW, cfg)
		}
		if err != nil {
			return err
		}
		out = append(out, Record{
			Name:       "kmeans/" + ds + "/" + name,
			Assign:     res.Assign,
			Objective:  math.Float64bits(res.Objective),
			Iterations: res.Iterations,
			Converged:  res.Converged,
		})
		return nil
	}
	kMeans := func(name, ds string, cfg kmeans.Config) error {
		return kMeansWeighted(name, ds, nil, cfg)
	}
	zgyaRun := func(name, ds, attr string, cfg zgya.Config) error {
		if attr == "" {
			attr = fx[ds].Sensitive[0].Name
		}
		res, err := zgya.Run(fx[ds], attr, cfg)
		if err != nil {
			return err
		}
		out = append(out, Record{
			Name:       "zgya/" + ds + "/" + name,
			Assign:     res.Assign,
			Objective:  math.Float64bits(res.Objective),
			Lambda:     math.Float64bits(res.Lambda),
			Iterations: res.Iterations,
			Converged:  res.Converged,
		})
		return nil
	}

	steps := []func() error{
		// FairKM: kernel corners, every sweep strategy, every initializer.
		func() error { return fairKM("seq", "synthA", core.Config{K: 7, AutoLambda: true, Seed: 3}) },
		func() error {
			return fairKM("skew", "synthA", core.Config{K: 7, AutoLambda: true, Seed: 3, SkewCompensation: true})
		},
		func() error {
			return fairKM("weights", "synthA", core.Config{K: 5, Lambda: 40, Seed: 9, Weights: map[string]float64{"cat0": 2.5}})
		},
		func() error {
			return fairKM("minibatch", "synthA", core.Config{K: 6, AutoLambda: true, Seed: 2, MiniBatch: 100})
		},
		func() error {
			return fairKM("par1", "synthA", core.Config{K: 7, AutoLambda: true, Seed: 3, Parallelism: 1})
		},
		func() error {
			return fairKM("par4-minibatch", "synthA", core.Config{K: 7, AutoLambda: true, Seed: 3, Parallelism: 4, MiniBatch: 128})
		},
		func() error {
			return fairKM("init-partition", "synthA", core.Config{K: 7, AutoLambda: true, Seed: 3, Init: kmeans.RandomPartition})
		},
		func() error {
			return fairKM("init-points", "synthA", core.Config{K: 7, AutoLambda: true, Seed: 3, Init: kmeans.RandomPoints})
		},
		func() error { return fairKM("seq", "synthB", core.Config{K: 5, AutoLambda: true, Seed: 2}) },
		func() error {
			return fairKM("par2", "synthB", core.Config{K: 5, AutoLambda: true, Seed: 2, Parallelism: 2})
		},
		func() error { return fairKM("seq", "adult", core.Config{K: 7, AutoLambda: true, Seed: 3}) },
		func() error {
			return fairKM("par2", "adult", core.Config{K: 7, AutoLambda: true, Seed: 3, Parallelism: 2})
		},
		func() error {
			return fairKM("par4", "adult", core.Config{K: 7, AutoLambda: true, Seed: 3, Parallelism: 4})
		},

		// K-Means: every initializer, Tol stop, MaxIter stop.
		func() error { return kMeans("kmpp", "synthA", kmeans.Config{K: 6, Seed: 5}) },
		func() error {
			return kMeans("partition", "synthA", kmeans.Config{K: 6, Seed: 5, Init: kmeans.RandomPartition})
		},
		func() error {
			return kMeans("points", "synthA", kmeans.Config{K: 6, Seed: 5, Init: kmeans.RandomPoints})
		},
		func() error { return kMeans("tol", "synthA", kmeans.Config{K: 6, Seed: 5, Tol: 1e-4}) },
		func() error { return kMeans("kmpp", "adult", kmeans.Config{K: 8, Seed: 2}) },
		func() error { return kMeans("maxiter", "adult", kmeans.Config{K: 8, Seed: 2, MaxIter: 5}) },

		// ZGYA: auto-λ heuristic, fixed λ, both centroid initializers.
		func() error { return zgyaRun("auto", "synthA", "cat0", zgya.Config{K: 5, AutoLambda: true, Seed: 4}) },
		func() error {
			return zgyaRun("points", "synthA", "cat0", zgya.Config{K: 5, Lambda: 10, Seed: 4, Init: kmeans.RandomPoints})
		},
		func() error { return zgyaRun("auto", "adult", "", zgya.Config{K: 6, AutoLambda: true, Seed: 2}) },
		func() error {
			return zgyaRun("partition", "adult", "", zgya.Config{K: 6, AutoLambda: true, Seed: 2, Init: kmeans.RandomPartition})
		},

		// FairKM corners recorded after the first 23 (appended so the
		// earlier records keep their positions): the weighted solve the
		// summarize-then-solve pipeline runs, the two fairness-term
		// ablation knobs, and mini-batching with numeric sensitive
		// attributes.
		func() error {
			return fairKMWeighted("weighted", "adult", fractionalWeights(fx["adult"].N()),
				core.Config{K: 7, AutoLambda: true, Seed: 3})
		},
		func() error {
			return fairKM("exponent1", "synthA", core.Config{K: 7, AutoLambda: true, Seed: 3, ClusterWeightExponent: 1})
		},
		func() error {
			return fairKM("no-domnorm", "adult", core.Config{K: 7, AutoLambda: true, Seed: 3, NoDomainNormalization: true})
		},
		func() error {
			return fairKM("minibatch", "synthB", core.Config{K: 5, AutoLambda: true, Seed: 2, MiniBatch: 64})
		},

		// Weighted K-Means, appended after the 27 records above: the
		// non-unit-weight Lloyd trajectory, sequential and with a
		// parallel sweep under the Tol stop.
		func() error {
			return kMeansWeighted("weighted", "adult", fractionalWeights(fx["adult"].N()),
				kmeans.Config{K: 8, Seed: 2})
		},
		func() error {
			return kMeansWeighted("weighted-par3", "synthA", fractionalWeights(fx["synthA"].N()),
				kmeans.Config{K: 6, Seed: 5, Parallelism: 3, Tol: 1e-4})
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fractionalWeights returns n deterministic row weights in [0.5, 4.5]
// with thirds in them, so weighted masses are not exactly
// representable and every rounding in the weighted kernel shows.
func fractionalWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 + float64((i*37)%13)/3
	}
	return w
}
