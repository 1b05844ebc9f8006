package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/metrics"
)

// ComparisonFigure reproduces Figures 1–4: for every sensitive
// attribute S, one fairness measure compared across ZGYA(S),
// FairKM(All) and FairKM(S), at k=5.
type ComparisonFigure struct {
	Name    string // e.g. "Figure 1"
	Dataset string
	Measure string // "AW" or "MW"
	Suite   *Suite
}

// suiteWithSinglesCache shares the expensive per-attribute FairKM(S)
// suite between Figures 1/2 (Adult) and 3/4 (Kinematics).
var (
	figMu    sync.Mutex
	figCache = map[string]*Suite{}
)

func comparisonSuite(name string, load func(Options) (*dataset.Dataset, error), lambda float64, opts Options) (*Suite, error) {
	opts.normalize()
	key := fmt.Sprintf("%s/%d/%d/%d", name, opts.Seed, opts.Reps, opts.AdultRows)
	figMu.Lock()
	defer figMu.Unlock()
	if s, ok := figCache[key]; ok {
		return s, nil
	}
	ds, err := load(opts)
	if err != nil {
		return nil, err
	}
	s, err := RunSuite(ds, 5, lambda, opts, true)
	if err != nil {
		return nil, err
	}
	figCache[key] = s
	return s, nil
}

// RunFig1 reproduces Figure 1: Adult AW comparison.
func RunFig1(opts Options) (*ComparisonFigure, error) {
	s, err := comparisonSuite("adult", LoadAdult, adultLambda, opts)
	if err != nil {
		return nil, err
	}
	return &ComparisonFigure{Name: "Figure 1", Dataset: "Adult", Measure: "AW", Suite: s}, nil
}

// RunFig2 reproduces Figure 2: Adult MW comparison.
func RunFig2(opts Options) (*ComparisonFigure, error) {
	s, err := comparisonSuite("adult", LoadAdult, adultLambda, opts)
	if err != nil {
		return nil, err
	}
	return &ComparisonFigure{Name: "Figure 2", Dataset: "Adult", Measure: "MW", Suite: s}, nil
}

// RunFig3 reproduces Figure 3: Kinematics AW comparison.
func RunFig3(opts Options) (*ComparisonFigure, error) {
	s, err := comparisonSuite("kin", LoadKinematics, kinLambda, opts)
	if err != nil {
		return nil, err
	}
	return &ComparisonFigure{Name: "Figure 3", Dataset: "Kinematics", Measure: "AW", Suite: s}, nil
}

// RunFig4 reproduces Figure 4: Kinematics MW comparison.
func RunFig4(opts Options) (*ComparisonFigure, error) {
	s, err := comparisonSuite("kin", LoadKinematics, kinLambda, opts)
	if err != nil {
		return nil, err
	}
	return &ComparisonFigure{Name: "Figure 4", Dataset: "Kinematics", Measure: "MW", Suite: s}, nil
}

// Render prints the figure as one row per attribute with the three
// compared series (the paper plots these as grouped bars).
func (f *ComparisonFigure) Render() string {
	tt := newTextTable(fmt.Sprintf("%s: %s dataset, %s per sensitive attribute (k=5, mean of %d restarts)",
		f.Name, f.Dataset, f.Measure, f.Suite.Reps))
	tt.row("Attribute", "ZGYA(S)", "FairKM(All)", "FairKM(S)")
	tt.rule()
	for _, attr := range f.Suite.AttrNames {
		tt.row(attr,
			f4(f.Suite.ZGYAFair[attr].Get(f.Measure)),
			f4(f.Suite.FairKMFair[attr].Get(f.Measure)),
			f4(f.Suite.FairKMSingleFair[attr].Get(f.Measure)),
		)
	}
	tt.rule()
	tt.row(MeanAttr,
		f4(f.Suite.ZGYAFair[MeanAttr].Get(f.Measure)),
		f4(f.Suite.FairKMFair[MeanAttr].Get(f.Measure)),
		f4(f.Suite.FairKMSingleFair[MeanAttr].Get(f.Measure)),
	)
	return tt.String()
}

// LambdaPoint is one λ setting of the Figures 5–7 sweep with every
// measure recorded at that setting (averaged over restarts).
type LambdaPoint struct {
	Lambda float64
	QualityStats
	Fair metrics.FairnessReport // mean across attributes
}

// LambdaSweep reproduces the underlying experiment of Figures 5–7: a
// FairKM λ sweep on Kinematics from 1000 to 10000 in steps of 1000
// (Section 5.7).
type LambdaSweep struct {
	Points []LambdaPoint
	Reps   int
}

var (
	sweepMu    sync.Mutex
	sweepCache = map[string]*LambdaSweep{}
)

// RunLambdaSweep executes (or returns the cached) λ sweep.
func RunLambdaSweep(opts Options) (*LambdaSweep, error) {
	opts.normalize()
	key := fmt.Sprintf("%d/%d", opts.Seed, opts.Reps)
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if s, ok := sweepCache[key]; ok {
		return s, nil
	}
	ds, err := LoadKinematics(opts)
	if err != nil {
		return nil, err
	}
	sweep := &LambdaSweep{Reps: opts.Reps}
	for lambda := 1000.0; lambda <= 10000; lambda += 1000 {
		var point LambdaPoint
		point.Lambda = lambda
		var fairAcc metrics.FairnessReport
		for rep := 0; rep < opts.Reps; rep++ {
			seed := opts.Seed + int64(rep)
			km, err := kmeans.Run(ds.Features, opts.KMeansConfig(5, seed))
			if err != nil {
				return nil, err
			}
			fkmCfg := opts.FairKMConfig(5, seed)
			fkmCfg.Lambda = lambda
			fkm, err := core.Run(ds, fkmCfg)
			if err != nil {
				return nil, err
			}
			point.QualityStats.add(quality(ds, fkm.Assign, km.Assign, 5, opts, seed))
			reps := metrics.FairnessAll(ds, fkm.Assign, 5)
			mean := reps[len(reps)-1]
			fairAcc.AE += mean.AE
			fairAcc.AW += mean.AW
			fairAcc.ME += mean.ME
			fairAcc.MW += mean.MW
		}
		inv := 1 / float64(opts.Reps)
		point.QualityStats.scale(inv)
		fairAcc.AE *= inv
		fairAcc.AW *= inv
		fairAcc.ME *= inv
		fairAcc.MW *= inv
		fairAcc.Attribute = MeanAttr
		point.Fair = fairAcc
		sweep.Points = append(sweep.Points, point)
	}
	sweepCache[key] = sweep
	return sweep, nil
}

// SweepFigure renders one of Figures 5–7 from the shared λ sweep.
type SweepFigure struct {
	Name    string
	Columns []string // which series to print
	Sweep   *LambdaSweep
}

// RunFig5 reproduces Figure 5: Kinematics CO and SH vs λ.
func RunFig5(opts Options) (*SweepFigure, error) {
	s, err := RunLambdaSweep(opts)
	if err != nil {
		return nil, err
	}
	return &SweepFigure{Name: "Figure 5: Kinematics (CO and SH) vs λ", Columns: []string{"CO", "SH"}, Sweep: s}, nil
}

// RunFig6 reproduces Figure 6: Kinematics DevC and DevO vs λ.
func RunFig6(opts Options) (*SweepFigure, error) {
	s, err := RunLambdaSweep(opts)
	if err != nil {
		return nil, err
	}
	return &SweepFigure{Name: "Figure 6: Kinematics (DevC and DevO) vs λ", Columns: []string{"DevC", "DevO"}, Sweep: s}, nil
}

// RunFig7 reproduces Figure 7: Kinematics fairness metrics vs λ.
func RunFig7(opts Options) (*SweepFigure, error) {
	s, err := RunLambdaSweep(opts)
	if err != nil {
		return nil, err
	}
	return &SweepFigure{Name: "Figure 7: Kinematics fairness metrics vs λ", Columns: []string{"AE", "AW", "ME", "MW"}, Sweep: s}, nil
}

// Render prints the sweep as one row per λ with the figure's series.
func (f *SweepFigure) Render() string {
	tt := newTextTable(fmt.Sprintf("%s (FairKM, k=5, mean of %d restarts)", f.Name, f.Sweep.Reps))
	tt.row(append([]string{"lambda"}, f.Columns...)...)
	tt.rule()
	for _, p := range f.Sweep.Points {
		row := []string{fmt.Sprintf("%.0f", p.Lambda)}
		for _, col := range f.Columns {
			switch col {
			case "CO":
				row = append(row, f4(p.CO))
			case "SH":
				row = append(row, f4(p.SH))
			case "DevC":
				row = append(row, f4(p.DevC))
			case "DevO":
				row = append(row, f4(p.DevO))
			default:
				row = append(row, f4(p.Fair.Get(col)))
			}
		}
		tt.row(row...)
	}
	return tt.String()
}
