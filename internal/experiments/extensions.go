package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data/adult"
	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/zgya"
)

// The experiments in this file go beyond the paper's evaluation, as
// does the method comparison in methods.go: a scalability
// measurement backing the Section 4.3.1 complexity discussion, and an
// exercise of the numeric-sensitive-attribute extension (Section
// 4.4.1).

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
