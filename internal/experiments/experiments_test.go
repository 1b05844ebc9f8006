package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// tinyOptions keeps experiment tests fast: reduced Adult, few reps.
func tinyOptions() Options {
	opts := DefaultOptions()
	opts.Reps = 2
	opts.AdultRows = 2500
	opts.SilhouetteSample = 400
	return opts
}

// syntheticDataset builds a small two-blob dataset with two sensitive
// attributes for suite-level unit tests.
func syntheticDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	b := dataset.NewBuilder("x", "y")
	b.AddCategoricalSensitive("g")
	b.AddCategoricalSensitive("h")
	rng := stats.NewRNG(8)
	for i := 0; i < 60; i++ {
		blob := i % 2
		g := "a"
		if (i/2)%4 == 0 {
			g = "b"
		}
		h := "p"
		if i%3 == 0 {
			h = "q"
		}
		b.Row([]float64{rng.Gaussian(float64(blob)*5, 0.5), rng.Gaussian(0, 0.5)}, []string{g, h}, nil)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRunSuiteShapes(t *testing.T) {
	ds := syntheticDataset(t)
	opts := tinyOptions()
	s, err := RunSuite(ds, 3, 100, opts, true)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	if s.K != 3 || s.Reps != opts.Reps {
		t.Errorf("suite K/Reps = %d/%d", s.K, s.Reps)
	}
	if len(s.AttrNames) != 2 {
		t.Fatalf("attrs = %v", s.AttrNames)
	}
	for _, attr := range append([]string{MeanAttr}, s.AttrNames...) {
		for _, m := range map[string]map[string]float64{
			"KMeans": {"AE": s.KMeansFair[attr].AE},
			"ZGYA":   {"AE": s.ZGYAFair[attr].AE},
			"FairKM": {"AE": s.FairKMFair[attr].AE},
			"Single": {"AE": s.FairKMSingleFair[attr].AE},
		} {
			for name, v := range m {
				if math.IsNaN(v) || v < 0 {
					t.Errorf("%v fairness %s for %s = %v", m, name, attr, v)
				}
			}
		}
	}
	// The reference clustering must have zero deviation from itself.
	if s.KMeans.DevC != 0 || s.KMeans.DevO != 0 {
		t.Errorf("K-Means self-deviation DevC=%v DevO=%v, want 0", s.KMeans.DevC, s.KMeans.DevO)
	}
	// Mean report must be the average of per-attribute reports.
	wantAE := (s.FairKMFair["g"].AE + s.FairKMFair["h"].AE) / 2
	if math.Abs(s.FairKMFair[MeanAttr].AE-wantAE) > 1e-12 {
		t.Errorf("mean AE = %v, want %v", s.FairKMFair[MeanAttr].AE, wantAE)
	}
}

func TestRunSuiteNoCategoricalAttrs(t *testing.T) {
	b := dataset.NewBuilder("x")
	b.AddNumericSensitive("age")
	b.Row([]float64{1}, nil, []float64{3})
	b.Row([]float64{2}, nil, []float64{4})
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSuite(ds, 2, 1, tinyOptions(), false); err == nil {
		t.Error("expected error for dataset without categorical sensitive attributes")
	}
}

func TestImprovement(t *testing.T) {
	cases := []struct {
		fairKM, km, zg, want float64
	}{
		{0.5, 1.0, 2.0, 50},   // beats the better baseline (K-Means) by 50%
		{0.5, 2.0, 1.0, 50},   // baseline order must not matter
		{2.0, 1.0, 1.5, -100}, // worse than the best baseline
		{1.0, 1.0, 1.0, 0},
		{1.0, 0.0, 0.0, 0}, // zero baseline guarded
	}
	for i, c := range cases {
		if got := Improvement(c.fairKM, c.km, c.zg); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("case %d: Improvement = %v, want %v", i, got, c.want)
		}
	}
}

func TestKinematicsTablesShapes(t *testing.T) {
	opts := tinyOptions()
	t7, err := RunTable7(opts)
	if err != nil {
		t.Fatalf("Table7: %v", err)
	}
	if len(t7.Suites) != 1 || t7.Suites[0].K != 5 {
		t.Errorf("Table7 suites malformed")
	}
	out := t7.Render()
	for _, want := range []string{"CO", "SH", "DevC", "DevO", "FairKM", "ZGYA", "K-Means"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table7 render missing %q:\n%s", want, out)
		}
	}
	t8, err := RunTable8(opts)
	if err != nil {
		t.Fatalf("Table8: %v", err)
	}
	out8 := t8.Render()
	for _, want := range []string{"Type-1", "Type-5", "mean", "AE", "MW", "Impr"} {
		if !strings.Contains(out8, want) {
			t.Errorf("Table8 render missing %q", want)
		}
	}
}

// TestKinematicsHeadlineShape asserts the paper's central claims on the
// kinematics dataset: FairKM improves fairness over K-Means(N) by a
// large factor at a modest clustering-quality cost.
func TestKinematicsHeadlineShape(t *testing.T) {
	opts := tinyOptions()
	opts.Reps = 3
	t7, err := RunTable7(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := t7.Suites[0]
	if s.FairKM.CO < s.KMeans.CO {
		// FairKM trades coherence for fairness; equal or worse CO.
		t.Logf("note: FairKM CO %v beat K-Means %v (possible with restarts)", s.FairKM.CO, s.KMeans.CO)
	}
	if s.FairKM.CO > 2*s.KMeans.CO {
		t.Errorf("FairKM CO %v degraded more than 2x vs K-Means %v", s.FairKM.CO, s.KMeans.CO)
	}
	t8, err := RunTable8(opts)
	if err != nil {
		t.Fatal(err)
	}
	s8 := t8.Suites[0]
	kmAE := s8.KMeansFair[MeanAttr].AE
	fkAE := s8.FairKMFair[MeanAttr].AE
	if fkAE > kmAE/2 {
		t.Errorf("FairKM mean AE %v not at least 2x better than K-Means %v", fkAE, kmAE)
	}
}

func TestComparisonFigures(t *testing.T) {
	opts := tinyOptions()
	f3, err := RunFig3(opts)
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	if f3.Measure != "AW" || f3.Dataset != "Kinematics" {
		t.Errorf("Fig3 metadata: %+v", f3)
	}
	out := f3.Render()
	for _, want := range []string{"ZGYA(S)", "FairKM(All)", "FairKM(S)", "Type-3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 render missing %q", want)
		}
	}
	f4, err := RunFig4(opts)
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	if f4.Measure != "MW" {
		t.Errorf("Fig4 measure = %q", f4.Measure)
	}
	// Figures 3 and 4 share the suite; the cache must hand back the
	// same pointer rather than recompute.
	if f3.Suite != f4.Suite {
		t.Error("comparison suite was not shared between figures 3 and 4")
	}
}

func TestLambdaSweep(t *testing.T) {
	opts := tinyOptions()
	sweep, err := RunLambdaSweep(opts)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(sweep.Points) != 10 {
		t.Fatalf("sweep has %d points, want 10 (λ=1000..10000)", len(sweep.Points))
	}
	if sweep.Points[0].Lambda != 1000 || sweep.Points[9].Lambda != 10000 {
		t.Errorf("sweep endpoints: %v .. %v", sweep.Points[0].Lambda, sweep.Points[9].Lambda)
	}
	// Directional check (Section 5.7): fairness at the high end must be
	// no worse than at the low end, and quality no better.
	first, last := sweep.Points[0], sweep.Points[9]
	if last.Fair.AE > first.Fair.AE+1e-9 {
		t.Errorf("AE did not improve across sweep: %v -> %v", first.Fair.AE, last.Fair.AE)
	}
	if last.CO < first.CO-1e-9 {
		t.Errorf("CO improved across sweep (%v -> %v); λ should trade quality away", first.CO, last.CO)
	}
	for _, name := range []string{"5", "6", "7"} {
		var fig *SweepFigure
		var err error
		switch name {
		case "5":
			fig, err = RunFig5(opts)
		case "6":
			fig, err = RunFig6(opts)
		default:
			fig, err = RunFig7(opts)
		}
		if err != nil {
			t.Fatalf("Fig%s: %v", name, err)
		}
		if !strings.Contains(fig.Render(), "lambda") {
			t.Errorf("Fig%s render missing lambda column", name)
		}
	}
}

func TestOptionsNormalize(t *testing.T) {
	var o Options
	o.normalize()
	if o.Reps != 10 || o.SilhouetteSample != 2000 {
		t.Errorf("normalized zero options = %+v", o)
	}
}

func TestLoadAdultCached(t *testing.T) {
	opts := tinyOptions()
	a, err := LoadAdult(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadAdult(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("LoadAdult did not cache")
	}
	// Min-max normalization: all features within [0, 1].
	for i, row := range a.Features {
		for j, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("feature [%d][%d] = %v outside [0,1]", i, j, v)
			}
		}
	}
}
