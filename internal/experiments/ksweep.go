package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/metrics"
)

// KPoint is one k in the cluster-count sweep.
type KPoint struct {
	K int
	// Blind and Fair hold the K-Means(N) / FairKM measurements.
	BlindCO, FairCO float64
	BlindSH, FairSH float64
	// Mean fairness across attributes and, separately, the
	// highest-cardinality attribute (native-country), whose recovery
	// with growing k is the paper's Section 5.5.3 observation.
	BlindMeanAE, FairMeanAE float64
	BlindWideAE, FairWideAE float64
	WideAttr                string
}

// KSweep generalizes the paper's k ∈ {5, 15} contrast into a sweep,
// tracking how FairKM uses the extra assignment flexibility of larger
// k — especially on the highest-cardinality attribute.
type KSweep struct {
	Dataset string
	Points  []KPoint
	Reps    int
}

// RunKSweep sweeps k over the Adult dataset.
func RunKSweep(opts Options) (*KSweep, error) {
	opts.normalize()
	ds, err := LoadAdult(opts)
	if err != nil {
		return nil, err
	}
	// Highest-cardinality categorical attribute.
	wide := ""
	wideCard := 0
	for _, s := range ds.Sensitive {
		if s.Cardinality() > wideCard {
			wide, wideCard = s.Name, s.Cardinality()
		}
	}
	sweep := &KSweep{Dataset: "Adult", Reps: opts.Reps}
	for _, k := range []int{2, 5, 10, 15, 20} {
		var p KPoint
		p.K = k
		p.WideAttr = wide
		for rep := 0; rep < opts.Reps; rep++ {
			seed := opts.Seed + int64(rep)
			km, err := kmeans.Run(ds.Features, opts.KMeansConfig(k, seed))
			if err != nil {
				return nil, err
			}
			fkmCfg := opts.FairKMConfig(k, seed)
			fkmCfg.Lambda = adultLambda
			fkm, err := core.Run(ds, fkmCfg)
			if err != nil {
				return nil, err
			}
			p.BlindCO += metrics.CO(ds.Features, km.Assign, k)
			p.FairCO += metrics.CO(ds.Features, fkm.Assign, k)
			p.BlindSH += metrics.SilhouetteSampled(ds.Features, km.Assign, k, opts.SilhouetteSample, seed)
			p.FairSH += metrics.SilhouetteSampled(ds.Features, fkm.Assign, k, opts.SilhouetteSample, seed)
			kmReps := metrics.FairnessAll(ds, km.Assign, k)
			fkReps := metrics.FairnessAll(ds, fkm.Assign, k)
			p.BlindMeanAE += kmReps[len(kmReps)-1].AE
			p.FairMeanAE += fkReps[len(fkReps)-1].AE
			p.BlindWideAE += findAttr(kmReps, wide).AE
			p.FairWideAE += findAttr(fkReps, wide).AE
		}
		inv := 1 / float64(opts.Reps)
		p.BlindCO *= inv
		p.FairCO *= inv
		p.BlindSH *= inv
		p.FairSH *= inv
		p.BlindMeanAE *= inv
		p.FairMeanAE *= inv
		p.BlindWideAE *= inv
		p.FairWideAE *= inv
		sweep.Points = append(sweep.Points, p)
	}
	return sweep, nil
}

func findAttr(reps []metrics.FairnessReport, name string) metrics.FairnessReport {
	for _, r := range reps {
		if r.Attribute == name {
			return r
		}
	}
	return metrics.FairnessReport{}
}

// Render prints the sweep.
func (s *KSweep) Render() string {
	tt := newTextTable(fmt.Sprintf("Cluster-count sweep on %s (mean of %d restarts; wide attr = %s)",
		s.Dataset, s.Reps, s.Points[0].WideAttr))
	tt.row("k", "CO blind", "CO fair", "SH blind", "SH fair", "meanAE blind", "meanAE fair", "wideAE blind", "wideAE fair")
	tt.rule()
	for _, p := range s.Points {
		tt.row(fmt.Sprintf("%d", p.K),
			f4(p.BlindCO), f4(p.FairCO), f4(p.BlindSH), f4(p.FairSH),
			f4(p.BlindMeanAE), f4(p.FairMeanAE), f4(p.BlindWideAE), f4(p.FairWideAE))
	}
	return tt.String()
}

// ConvergencePoint traces FairKM's per-iteration behaviour at one λ.
type ConvergencePoint struct {
	Lambda     float64
	Iterations float64 // mean iterations to convergence (or MaxIter)
	Converged  float64 // fraction of restarts that converged
	FirstObj   float64 // mean objective after iteration 1
	FinalObj   float64 // mean final objective
	TotalMoves float64 // mean total assignment changes
}

// Convergence measures optimizer behaviour across λ on Kinematics,
// quantifying the claim that round-robin coordinate descent converges
// comfortably inside the paper's 30-iteration budget.
type Convergence struct {
	Points []ConvergencePoint
	Reps   int
}

// RunConvergence traces FairKM convergence for several λ.
func RunConvergence(opts Options) (*Convergence, error) {
	opts.normalize()
	ds, err := LoadKinematics(opts)
	if err != nil {
		return nil, err
	}
	out := &Convergence{Reps: opts.Reps}
	for _, lambda := range []float64{0, 1000, 4000, 10000} {
		var p ConvergencePoint
		p.Lambda = lambda
		for rep := 0; rep < opts.Reps; rep++ {
			cfg := opts.FairKMConfig(5, opts.Seed+int64(rep))
			cfg.Lambda = lambda
			cfg.RecordHistory = true
			res, err := core.Run(ds, cfg)
			if err != nil {
				return nil, err
			}
			p.Iterations += float64(res.Iterations)
			if res.Converged {
				p.Converged++
			}
			p.FirstObj += res.History[0].Objective
			p.FinalObj += res.Objective
			p.TotalMoves += float64(res.TotalMoves)
		}
		inv := 1 / float64(opts.Reps)
		p.Iterations *= inv
		p.Converged *= inv
		p.FirstObj *= inv
		p.FinalObj *= inv
		p.TotalMoves *= inv
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// Render prints the convergence table.
func (c *Convergence) Render() string {
	tt := newTextTable(fmt.Sprintf("FairKM convergence on Kinematics, k=5 (mean of %d restarts, cap %d iterations)",
		c.Reps, maxIter))
	tt.row("lambda", "iterations", "converged%", "obj@iter1", "obj final", "total moves")
	tt.rule()
	for _, p := range c.Points {
		tt.row(fmt.Sprintf("%.0f", p.Lambda),
			f2(p.Iterations), f2(100*p.Converged), f4(p.FirstObj), f4(p.FinalObj), f2(p.TotalMoves))
	}
	return tt.String()
}
