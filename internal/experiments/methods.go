package experiments

import (
	"fmt"
	"time"

	"repro/internal/bera"
	"repro/internal/core"
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

// LambdaAuto is a CompareMethods λ selecting FairKM's (n/k)² heuristic.
const LambdaAuto = -1

// sizeCutoff is the row count above which the Bera LP and the fair
// spectral eigensolver are skipped (see internal/bera's cost note).
const sizeCutoff = 2000

// MethodRow is one method's measurements in the method comparison.
type MethodRow struct {
	Method  string
	CO      float64
	SH      float64
	MeanAE  float64
	MeanMW  float64
	Millis  float64
	Remarks string
	// Skipped, when non-empty, says why the method did not run (a skip
	// rule or its error); the measurements are then zero.
	Skipped string
}

// BaselineComparison compares every implemented clustering method on
// one dataset.
type BaselineComparison struct {
	Dataset string
	K       int
	Rows    []MethodRow
}

// comparison is what every method row runs on.
type comparison struct {
	ds     *dataset.Dataset
	attr   string // target of the single-attribute methods
	k      int
	lambda float64 // FairKM's λ; negative selects (n/k)²
	opts   Options
}

// method is one row of the method table: the families of the paper's
// Table 1 that this repository implements.
type method struct {
	name string
	// perAttr marks a single-attribute method, labelled name(attr).
	perAttr bool
	// note is the row's remark; empty means the λ rule (FairKM's row).
	note string
	// skip returns why the method cannot take this input, or "".
	skip func(c comparison) string
	run  func(c comparison) ([]int, error)
}

var methods = []method{
	{name: "K-Means(N)", note: "S-blind", run: func(c comparison) ([]int, error) {
		r, err := kmeans.Run(c.ds.Features, c.opts.KMeansConfig(c.k, c.opts.Seed))
		if err != nil {
			return nil, err
		}
		return r.Assign, nil
	}},
	{name: "FairKM(all)", run: func(c comparison) ([]int, error) {
		cfg := c.opts.FairKMConfig(c.k, c.opts.Seed)
		if c.lambda < 0 {
			cfg.AutoLambda = true
		} else {
			cfg.Lambda = c.lambda
		}
		r, err := core.Run(c.ds, cfg)
		if err != nil {
			return nil, err
		}
		return r.Assign, nil
	}},
	{name: "ZGYA", perAttr: true, note: "single attr", run: func(c comparison) ([]int, error) {
		cfg := c.opts.ZGYAConfig(c.attr, c.k, c.opts.Seed)
		cfg.AutoLambda = true
		r, err := zgya.Run(c.ds, c.attr, cfg)
		if err != nil {
			return nil, err
		}
		return r.Assign, nil
	}},
	{name: "Fairlet", perAttr: true, note: "single binary attr",
		skip: func(c comparison) string {
			if c.ds.SensitiveByName(c.attr).Cardinality() != 2 {
				return fmt.Sprintf("attribute %q is not binary", c.attr)
			}
			return ""
		},
		run: func(c comparison) ([]int, error) {
			r, err := fairlet.Run(c.ds, c.attr, fairlet.Config{K: c.k, Seed: c.opts.Seed})
			if err != nil {
				return nil, err
			}
			return r.Assign, nil
		}},
	{name: "Bera(all)", note: "LP + rounding",
		skip: aboveCutoff("LP size"),
		run: func(c comparison) ([]int, error) {
			r, err := bera.Run(c.ds, bera.Config{K: c.k, Delta: bera.DefaultDelta, Seed: c.opts.Seed})
			if err != nil {
				return nil, err
			}
			return r.Assign, nil
		}},
	{name: "FairSC(all)", note: "spectral, constrained",
		skip: aboveCutoff("eigensolver"),
		run: func(c comparison) ([]int, error) {
			r, err := spectral.Run(c.ds, spectral.Config{K: c.k, Fair: true, Seed: c.opts.Seed})
			if err != nil {
				return nil, err
			}
			return r.Assign, nil
		}},
	{name: "FairKCenter", perAttr: true, note: "center quotas", run: func(c comparison) ([]int, error) {
		r, err := kcenter.Run(c.ds, kcenter.Config{K: c.k, Attr: c.attr, Seed: c.opts.Seed})
		if err != nil {
			return nil, err
		}
		return r.Assign, nil
	}},
	{name: "GreedyCapture", note: "attribute-agnostic", run: func(c comparison) ([]int, error) {
		r, err := proportional.GreedyCapture(c.ds.Features, c.k)
		if err != nil {
			return nil, err
		}
		return r.Assign, nil
	}},
	{name: "FairProj+KM(all)", note: "space transformation", run: func(c comparison) ([]int, error) {
		proj, err := fairproj.MeanDifferenceProjection(c.ds)
		if err != nil {
			return nil, err
		}
		r, err := kmeans.Run(proj.Features, c.opts.KMeansConfig(c.k, c.opts.Seed))
		if err != nil {
			return nil, err
		}
		return r.Assign, nil
	}},
}

// aboveCutoff is the skip rule of the methods whose cost grows too
// fast to run above sizeCutoff rows; what names the costly step.
func aboveCutoff(what string) func(c comparison) string {
	return func(c comparison) string {
		if c.ds.N() > sizeCutoff {
			return fmt.Sprintf("n=%d above the %s cutoff (%d)", c.ds.N(), what, sizeCutoff)
		}
		return ""
	}
}

// CompareMethods runs every method of the table on ds at k clusters,
// the single-attribute ones on attr and FairKM at lambda (LambdaAuto
// for (n/k)²). Each row records its own run's wall-clock, CO,
// SilhouetteSampled at opts.SilhouetteSample and the mean AE/MW over
// every sensitive attribute. A method that is skipped or fails yields a
// row with Skipped set instead of an error.
func CompareMethods(ds *dataset.Dataset, attr string, k int, lambda float64, opts Options) (*BaselineComparison, error) {
	opts.normalize()
	if ds.SensitiveByName(attr) == nil {
		return nil, fmt.Errorf("no sensitive attribute %q", attr)
	}
	c := comparison{ds: ds, attr: attr, k: k, lambda: lambda, opts: opts}
	cmp := &BaselineComparison{K: k}
	for _, m := range methods {
		cmp.Rows = append(cmp.Rows, c.measure(m))
	}
	return cmp, nil
}

// measure runs one method unless its skip rule applies, timing the run
// alone.
func (c comparison) measure(m method) MethodRow {
	name := m.name
	if m.perAttr {
		name += "(" + c.attr + ")"
	}
	if m.skip != nil {
		if why := m.skip(c); why != "" {
			return MethodRow{Method: name, Skipped: why}
		}
	}
	start := time.Now()
	assign, err := m.run(c)
	elapsed := ms(start)
	if err != nil {
		return MethodRow{Method: name, Skipped: err.Error()}
	}
	note := m.note
	if note == "" {
		note = fmt.Sprintf("λ=%g", c.lambda)
		if c.lambda < 0 {
			note = "λ=(n/k)²"
		}
	}
	reps := metrics.FairnessAll(c.ds, assign, c.k)
	mean := reps[len(reps)-1]
	return MethodRow{
		Method:  name,
		CO:      metrics.CO(c.ds.Features, assign, c.k),
		SH:      metrics.SilhouetteSampled(c.ds.Features, assign, c.k, c.opts.SilhouetteSample, c.opts.Seed),
		MeanAE:  mean.AE,
		MeanMW:  mean.MW,
		Millis:  elapsed,
		Remarks: note,
	}
}

// RunBaselines runs the method table on the Kinematics dataset (its
// 161 points are within reach of even the O(n³)+LP methods) at k=5
// and FairKM's Kinematics λ. Single-attribute methods target Type-1,
// the largest type. Unlike CompareMethods it fails on a skipped row.
func RunBaselines(opts Options) (*BaselineComparison, error) {
	ds, err := LoadKinematics(opts)
	if err != nil {
		return nil, err
	}
	cmp, err := CompareMethods(ds, "Type-1", 5, kinLambda, opts)
	if err != nil {
		return nil, err
	}
	for _, r := range cmp.Rows {
		if r.Skipped != "" {
			return nil, fmt.Errorf("experiments: %s: %s", r.Method, r.Skipped)
		}
	}
	cmp.Dataset = "Kinematics"
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
