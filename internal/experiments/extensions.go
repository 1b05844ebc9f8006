package experiments

import (
	"fmt"
	"time"

	"repro/internal/bera"
	"repro/internal/core"
	"repro/internal/data/adult"
	"repro/internal/dataset"
	"repro/internal/fairlet"
	"repro/internal/fairproj"
	"repro/internal/kcenter"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/proportional"
	"repro/internal/spectral"
	"repro/internal/zgya"
)

// The experiments in this file go beyond the paper's evaluation: a
// cross-method comparison against every baseline family surveyed in
// the paper's Table 1 that this repository implements, a scalability
// measurement backing the Section 4.3.1 complexity discussion, and an
// exercise of the numeric-sensitive-attribute extension (Section
// 4.4.1).

// MethodRow is one method's measurements in the baseline comparison.
type MethodRow struct {
	Method  string
	CO      float64
	SH      float64
	MeanAE  float64
	MeanMW  float64
	Millis  float64
	Remarks string
}

// BaselineComparison compares every implemented clustering method on
// one dataset.
type BaselineComparison struct {
	Dataset string
	K       int
	Rows    []MethodRow
}

// RunBaselines runs the full method zoo on the Kinematics dataset
// (its 161 points are within reach of even the O(n³)+LP methods) at
// k=5. Single-attribute methods target Type-1, the largest type.
func RunBaselines(opts Options) (*BaselineComparison, error) {
	opts.normalize()
	ds, err := LoadKinematics(opts)
	if err != nil {
		return nil, err
	}
	const k = 5
	const attr = "Type-1"
	cmp := &BaselineComparison{Dataset: "Kinematics", K: k}

	ref, err := kmeans.Run(ds.Features, opts.KMeansConfig(k, opts.Seed))
	if err != nil {
		return nil, err
	}

	add := func(name, remarks string, run func() ([]int, error)) error {
		start := time.Now()
		assign, err := run()
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
		elapsed := time.Since(start)
		reps := metrics.FairnessAll(ds, assign, k)
		mean := reps[len(reps)-1]
		cmp.Rows = append(cmp.Rows, MethodRow{
			Method:  name,
			CO:      metrics.CO(ds.Features, assign, k),
			SH:      metrics.Silhouette(ds.Features, assign, k),
			MeanAE:  mean.AE,
			MeanMW:  mean.MW,
			Millis:  float64(elapsed.Microseconds()) / 1000,
			Remarks: remarks,
		})
		return nil
	}

	if err := add("K-Means(N)", "S-blind", func() ([]int, error) {
		return ref.Assign, nil
	}); err != nil {
		return nil, err
	}
	if err := add("FairKM(all)", "all 5 attrs", func() ([]int, error) {
		cfg := opts.FairKMConfig(k, opts.Seed)
		cfg.Lambda = kinLambda
		r, err := core.Run(ds, cfg)
		if err != nil {
			return nil, err
		}
		return r.Assign, nil
	}); err != nil {
		return nil, err
	}
	if err := add("ZGYA("+attr+")", "single attr", func() ([]int, error) {
		cfg := opts.ZGYAConfig(attr, k, opts.Seed)
		cfg.AutoLambda = true
		r, err := zgya.Run(ds, attr, cfg)
		if err != nil {
			return nil, err
		}
		return r.Assign, nil
	}); err != nil {
		return nil, err
	}
	if err := add("Fairlet("+attr+")", "single binary attr", func() ([]int, error) {
		r, err := fairlet.Run(ds, attr, fairlet.Config{K: k, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		return r.Assign, nil
	}); err != nil {
		return nil, err
	}
	if err := add("Bera(all)", "LP + rounding", func() ([]int, error) {
		r, err := bera.Run(ds, bera.Config{K: k, Delta: 0.4, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		return r.Assign, nil
	}); err != nil {
		return nil, err
	}
	if err := add("FairSC(all)", "spectral, constrained", func() ([]int, error) {
		r, err := spectral.Run(ds, spectral.Config{K: k, Fair: true, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		return r.Assign, nil
	}); err != nil {
		return nil, err
	}
	if err := add("FairKCenter("+attr+")", "center quotas", func() ([]int, error) {
		r, err := kcenter.Run(ds, kcenter.Config{K: k, Attr: attr, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		return r.Assign, nil
	}); err != nil {
		return nil, err
	}
	if err := add("GreedyCapture", "attribute-agnostic", func() ([]int, error) {
		r, err := proportional.GreedyCapture(ds.Features, k)
		if err != nil {
			return nil, err
		}
		// Pad the assignment space to k clusters for metric helpers.
		return r.Assign, nil
	}); err != nil {
		return nil, err
	}
	if err := add("FairProj+KM(all)", "space transformation", func() ([]int, error) {
		proj, err := fairproj.MeanDifferenceProjection(ds)
		if err != nil {
			return nil, err
		}
		r, err := kmeans.Run(proj.Features, opts.KMeansConfig(k, opts.Seed))
		if err != nil {
			return nil, err
		}
		return r.Assign, nil
	}); err != nil {
		return nil, err
	}
	return cmp, nil
}

// Render prints the comparison table.
func (c *BaselineComparison) Render() string {
	tt := newTextTable(fmt.Sprintf("Baseline zoo on %s (k=%d): fair-clustering families from the paper's Table 1", c.Dataset, c.K))
	tt.row("Method", "CO ↓", "SH ↑", "meanAE ↓", "meanMW ↓", "ms", "notes")
	tt.rule()
	for _, r := range c.Rows {
		tt.row(r.Method, f4(r.CO), f4(r.SH), f4(r.MeanAE), f4(r.MeanMW), f2(r.Millis), r.Remarks)
	}
	return tt.String()
}

// ScalePoint is one dataset size in the scalability experiment.
type ScalePoint struct {
	N            int
	FairKMMillis float64
	KMeansMillis float64
	ZGYAMillis   float64
}

// Scalability measures wall-clock per run as n grows, backing the
// paper's Section 4.3.1 discussion (FairKM is slower than K-Means by
// a k·|S|-dependent factor per pass, but far cheaper than
// NP-hard/fairlet-style preprocessing).
type Scalability struct {
	Points []ScalePoint
	K      int
}

// RunScalability times the three main methods across Adult subsets of
// growing size.
func RunScalability(opts Options) (*Scalability, error) {
	opts.normalize()
	const k = 5
	out := &Scalability{K: k}
	for _, n := range []int{1000, 2000, 4000, 8000} {
		ds, err := adult.Generate(adult.Config{Seed: opts.Seed, Rows: n, SkipParity: true})
		if err != nil {
			return nil, err
		}
		ds.MinMaxNormalize()
		p := ScalePoint{N: ds.N()}

		start := time.Now()
		if _, err := kmeans.Run(ds.Features, opts.KMeansConfig(k, opts.Seed)); err != nil {
			return nil, err
		}
		p.KMeansMillis = ms(start)

		start = time.Now()
		fkmCfg := opts.FairKMConfig(k, opts.Seed)
		fkmCfg.Lambda = adultLambda
		if _, err := core.Run(ds, fkmCfg); err != nil {
			return nil, err
		}
		p.FairKMMillis = ms(start)

		start = time.Now()
		zgCfg := opts.ZGYAConfig("gender", k, opts.Seed)
		zgCfg.AutoLambda = true
		if _, err := zgya.Run(ds, "gender", zgCfg); err != nil {
			return nil, err
		}
		p.ZGYAMillis = ms(start)

		out.Points = append(out.Points, p)
	}
	return out, nil
}

func ms(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// Render prints the scaling table.
func (s *Scalability) Render() string {
	tt := newTextTable(fmt.Sprintf("Wall-clock per run vs dataset size (k=%d, %d iterations)", s.K, maxIter))
	tt.row("n", "K-Means ms", "FairKM ms", "ZGYA(gender) ms")
	tt.rule()
	for _, p := range s.Points {
		tt.row(fmt.Sprintf("%d", p.N), f2(p.KMeansMillis), f2(p.FairKMMillis), f2(p.ZGYAMillis))
	}
	return tt.String()
}

// NumericSensitive exercises the Section 4.4.1 extension: age as a
// numeric sensitive attribute on the Adult data.
type NumericSensitive struct {
	K int
	// Rows: per method, the cluster-mean age gap report.
	Blind  metrics.NumericFairnessReport
	FairKM metrics.NumericFairnessReport
	// CO for both methods.
	BlindCO, FairKMCO float64
}

// RunNumericSensitive moves Adult's age column from the features into
// a numeric sensitive attribute, then compares blind K-Means against
// FairKM under Eq. 22.
func RunNumericSensitive(opts Options) (*NumericSensitive, error) {
	opts.normalize()
	base, err := LoadAdult(opts)
	if err != nil {
		return nil, err
	}
	// Rebuild: age (feature column 0) becomes numeric-sensitive; the
	// remaining 7 features stay.
	b := dataset.NewBuilder(adult.FeatureNames[1:]...)
	b.AddNumericSensitive("age")
	for i := 0; i < base.N(); i++ {
		b.Row(base.Features[i][1:], nil, []float64{base.Features[i][0]})
	}
	ds, err := b.Build()
	if err != nil {
		return nil, err
	}
	const k = 5
	km, err := kmeans.Run(ds.Features, opts.KMeansConfig(k, opts.Seed))
	if err != nil {
		return nil, err
	}
	fkmCfg := opts.FairKMConfig(k, opts.Seed)
	fkmCfg.Lambda = adultLambda
	fkm, err := core.Run(ds, fkmCfg)
	if err != nil {
		return nil, err
	}
	age := ds.SensitiveByName("age")
	return &NumericSensitive{
		K:        k,
		Blind:    metrics.NumericFairness(age, km.Assign, k),
		FairKM:   metrics.NumericFairness(age, fkm.Assign, k),
		BlindCO:  metrics.CO(ds.Features, km.Assign, k),
		FairKMCO: metrics.CO(ds.Features, fkm.Assign, k),
	}, nil
}

// Render prints the numeric-sensitive comparison.
func (n *NumericSensitive) Render() string {
	tt := newTextTable(fmt.Sprintf("Numeric sensitive attribute (age) on Adult, k=%d — Eq. 22 extension", n.K))
	tt.row("Method", "CO ↓", "avg |meanC−meanX| ↓", "max gap ↓", "normalized avg ↓")
	tt.rule()
	tt.row("K-Means (blind)", f4(n.BlindCO), f4(n.Blind.AvgGap), f4(n.Blind.MaxGap), f4(n.Blind.NormAvgGap))
	tt.row("FairKM (Eq. 22)", f4(n.FairKMCO), f4(n.FairKM.AvgGap), f4(n.FairKM.MaxGap), f4(n.FairKM.NormAvgGap))
	return tt.String()
}
