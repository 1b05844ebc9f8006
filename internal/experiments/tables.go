package experiments

import "fmt"

// QualityTable reproduces Table 5 (Adult) or Table 7 (Kinematics):
// clustering-quality measures for K-Means(N), Avg-ZGYA and FairKM at
// each k.
type QualityTable struct {
	Dataset string
	Suites  []*Suite // one per k
}

// FairnessTable reproduces Table 6 (Adult) or Table 8 (Kinematics):
// per-attribute fairness for K-Means(N), the per-attribute ZGYA(S)
// invocations, and the all-attribute FairKM run, with the improvement
// column.
type FairnessTable struct {
	Dataset string
	Suites  []*Suite // one per k
}

// RunTable5 reproduces Table 5: clustering quality on Adult for
// k ∈ {5, 15}.
func RunTable5(opts Options) (*QualityTable, error) {
	opts.normalize()
	ds, err := LoadAdult(opts)
	if err != nil {
		return nil, err
	}
	t := &QualityTable{Dataset: "Adult"}
	for _, k := range []int{5, 15} {
		s, err := RunSuite(ds, k, adultLambda, opts, false)
		if err != nil {
			return nil, err
		}
		t.Suites = append(t.Suites, s)
	}
	return t, nil
}

// RunTable6 reproduces Table 6: fairness on Adult for k ∈ {5, 15}.
func RunTable6(opts Options) (*FairnessTable, error) {
	opts.normalize()
	ds, err := LoadAdult(opts)
	if err != nil {
		return nil, err
	}
	t := &FairnessTable{Dataset: "Adult"}
	for _, k := range []int{5, 15} {
		s, err := RunSuite(ds, k, adultLambda, opts, false)
		if err != nil {
			return nil, err
		}
		t.Suites = append(t.Suites, s)
	}
	return t, nil
}

// RunTable7 reproduces Table 7: clustering quality on Kinematics, k=5.
func RunTable7(opts Options) (*QualityTable, error) {
	opts.normalize()
	ds, err := LoadKinematics(opts)
	if err != nil {
		return nil, err
	}
	s, err := RunSuite(ds, 5, kinLambda, opts, false)
	if err != nil {
		return nil, err
	}
	return &QualityTable{Dataset: "Kinematics", Suites: []*Suite{s}}, nil
}

// RunTable8 reproduces Table 8: fairness on Kinematics, k=5.
func RunTable8(opts Options) (*FairnessTable, error) {
	opts.normalize()
	ds, err := LoadKinematics(opts)
	if err != nil {
		return nil, err
	}
	s, err := RunSuite(ds, 5, kinLambda, opts, false)
	if err != nil {
		return nil, err
	}
	return &FairnessTable{Dataset: "Kinematics", Suites: []*Suite{s}}, nil
}

// Render prints the quality table in the paper's layout: one row per
// measure, one method column group per k.
func (t *QualityTable) Render() string {
	tt := newTextTable(fmt.Sprintf("Clustering quality on %s (mean of %d restarts)", t.Dataset, t.Suites[0].Reps))
	header := []string{"Measure"}
	for _, s := range t.Suites {
		header = append(header,
			fmt.Sprintf("k=%d K-Means(N)", s.K),
			fmt.Sprintf("k=%d Avg.ZGYA", s.K),
			fmt.Sprintf("k=%d FairKM", s.K),
		)
	}
	tt.row(header...)
	tt.rule()
	type measure struct {
		name string
		get  func(QualityStats) float64
	}
	measures := []measure{
		{"CO ↓", func(q QualityStats) float64 { return q.CO }},
		{"SH ↑", func(q QualityStats) float64 { return q.SH }},
		{"DevC ↓", func(q QualityStats) float64 { return q.DevC }},
		{"DevO ↓", func(q QualityStats) float64 { return q.DevO }},
	}
	for _, m := range measures {
		row := []string{m.name}
		for _, s := range t.Suites {
			row = append(row, f4(m.get(s.KMeans)), f4(m.get(s.ZGYAAvg)), f4(m.get(s.FairKM)))
		}
		tt.row(row...)
	}
	return tt.String()
}

// Render prints the fairness table in the paper's layout: the mean
// block first, then one block per sensitive attribute, with columns
// K-Means(N), ZGYA(S), FairKM and FairKM Impr(%) for each k.
func (t *FairnessTable) Render() string {
	tt := newTextTable(fmt.Sprintf("Fairness on %s (mean of %d restarts; ZGYA(S) is per-attribute — the paper's favorable setting)", t.Dataset, t.Suites[0].Reps))
	header := []string{"Attribute", "Measure"}
	for _, s := range t.Suites {
		header = append(header,
			fmt.Sprintf("k=%d K-Means(N)", s.K),
			fmt.Sprintf("k=%d ZGYA(S)", s.K),
			fmt.Sprintf("k=%d FairKM", s.K),
			fmt.Sprintf("k=%d Impr(%%)", s.K),
		)
	}
	tt.row(header...)
	blocks := append([]string{MeanAttr}, t.Suites[0].AttrNames...)
	for _, attr := range blocks {
		tt.rule()
		for _, m := range []string{"AE", "AW", "ME", "MW"} {
			row := []string{attr, m + " ↓"}
			for _, s := range t.Suites {
				km := s.KMeansFair[attr].Get(m)
				zg := s.ZGYAFair[attr].Get(m)
				fk := s.FairKMFair[attr].Get(m)
				row = append(row, f4(km), f4(zg), f4(fk), f2(Improvement(fk, km, zg)))
			}
			tt.row(row...)
		}
	}
	return tt.String()
}
