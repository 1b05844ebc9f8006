// Command fairbench compares every fair-clustering method in this
// repository on a user-supplied CSV dataset, reporting clustering
// quality (CO, SH), fairness (mean AE / MW across the sensitive
// attributes) and wall-clock per method.
//
// Usage:
//
//	fairbench -in data.csv -features f1,f2 -sensitive s1,s2 -k 5
//	          [-single-attr S] [-seed N] [-minmax=true] [-parallel P]
//	          [-budget D] [-trace]
//
// -budget bounds the wall-clock of each engine-based solver run
// (FairKM, K-Means, ZGYA); -trace prints their per-iteration progress.
//
// Methods needing a single sensitive attribute (ZGYA, fairlet, fair
// k-center) use -single-attr, defaulting to the first sensitive
// column. Fairlet additionally requires that attribute to be binary
// and is skipped otherwise; Bera's LP is skipped above 2000 rows (see
// internal/bera's cost note).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bera"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fairlet"
	"repro/internal/fairproj"
	"repro/internal/kcenter"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/proportional"
	"repro/internal/spectral"
	"repro/internal/zgya"
)

func main() { cli.Main("fairbench", run) }

// run executes the comparison; split from main for testability.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fairbench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		in         = fs.String("in", "", "input CSV path (required)")
		features   = fs.String("features", "", "comma-separated numeric feature columns (required)")
		sensitive  = fs.String("sensitive", "", "comma-separated categorical sensitive columns (required)")
		k          = fs.Int("k", 5, "number of clusters")
		singleAttr = fs.String("single-attr", "", "attribute for single-attribute methods (default: first sensitive column)")
		seed       = fs.Int64("seed", 1, "random seed")
		minmax     = fs.Bool("minmax", true, "min-max normalize features")
		parallel   = fs.Int("parallel", 0, "engine sweep workers (FairKM/K-Means/ZGYA): 0 = sequential, -1 = GOMAXPROCS, n = n workers")
		budget     = fs.Duration("budget", 0, "wall-clock budget per engine-based solver run (0 = none)")
		trace      = fs.Bool("trace", false, "print one line per solver iteration")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *features == "" || *sensitive == "" {
		fs.Usage()
		return fmt.Errorf("-in, -features and -sensitive are required")
	}
	if *k < 1 {
		return fmt.Errorf("-k must be at least 1 (got %d)", *k)
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	ds, err := dataset.ReadCSV(f, dataset.CSVSpec{
		Features:             cli.SplitList(*features),
		CategoricalSensitive: cli.SplitList(*sensitive),
	})
	f.Close() //fairvet:ignore errflow -- file opened read-only; nothing was buffered to lose
	if err != nil {
		return err
	}
	if *minmax {
		ds.MinMaxNormalize()
	}
	attr := *singleAttr
	if attr == "" {
		attr = ds.Sensitive[0].Name
	}
	if ds.SensitiveByName(attr) == nil {
		return fmt.Errorf("no sensitive attribute %q", attr)
	}

	fmt.Fprintf(out, "fairbench: n=%d features=%d sensitive=%d k=%d single-attr=%s\n\n",
		ds.N(), ds.Dim(), len(ds.Sensitive), *k, attr)
	fmt.Fprintf(out, "%-22s %10s %8s %10s %10s %9s  %s\n",
		"method", "CO↓", "SH↑", "meanAE↓", "meanMW↓", "ms", "note")

	report := func(name, note string, assign []int, err error, start time.Time) {
		if err != nil {
			fmt.Fprintf(out, "%-22s %s\n", name, "skipped: "+err.Error())
			return
		}
		elapsed := float64(time.Since(start).Microseconds()) / 1000
		reps := metrics.FairnessAll(ds, assign, *k)
		mean := reps[len(reps)-1]
		fmt.Fprintf(out, "%-22s %10.4f %8.4f %10.4f %10.4f %9.2f  %s\n",
			name,
			metrics.CO(ds.Features, assign, *k),
			metrics.SilhouetteSampled(ds.Features, assign, *k, 2000, *seed),
			mean.AE, mean.MW, elapsed, note)
	}

	observer := func(label string) engine.Observer {
		if !*trace {
			return nil
		}
		return engine.TraceObserver(out, "trace "+label)
	}

	start := time.Now()
	km, err := kmeans.Run(ds.Features, kmeans.Config{K: *k, Seed: *seed, Parallelism: *parallel, Budget: *budget, Observer: observer("K-Means")})
	if err != nil {
		return err
	}
	report("K-Means (blind)", "", km.Assign, nil, start)

	start = time.Now()
	fkm, err := core.Run(ds, core.Config{K: *k, AutoLambda: true, Seed: *seed, Parallelism: *parallel, Budget: *budget, Observer: observer("FairKM")})
	report("FairKM (all attrs)", "λ=(n/k)²", assignOf(fkm), err, start)

	start = time.Now()
	zg, err := zgya.Run(ds, attr, zgya.Config{K: *k, AutoLambda: true, Seed: *seed, Parallelism: *parallel, Budget: *budget, Observer: observer("ZGYA")})
	report("ZGYA("+attr+")", "single attr", assignOfZ(zg), err, start)

	start = time.Now()
	if s := ds.SensitiveByName(attr); s.Cardinality() == 2 {
		fl, err := fairlet.Run(ds, attr, fairlet.Config{K: *k, Seed: *seed})
		report("Fairlet("+attr+")", "binary attr", assignOfF(fl), err, start)
	} else {
		fmt.Fprintf(out, "%-22s skipped: attribute %q is not binary\n", "Fairlet("+attr+")", attr)
	}

	start = time.Now()
	if ds.N() <= 2000 {
		br, err := bera.Run(ds, bera.Config{K: *k, Delta: bera.DefaultDelta, Seed: *seed})
		report("Bera (all attrs)", "LP + rounding", assignOfB(br), err, start)
	} else {
		fmt.Fprintf(out, "%-22s skipped: n=%d above the LP size cutoff (2000)\n", "Bera (all attrs)", ds.N())
	}

	start = time.Now()
	if ds.N() <= 2000 {
		sp, err := spectral.Run(ds, spectral.Config{K: *k, Fair: true, Seed: *seed})
		report("FairSC (all attrs)", "constrained spectral", assignOfS(sp), err, start)
	} else {
		fmt.Fprintf(out, "%-22s skipped: n=%d above the eigensolver cutoff (2000)\n", "FairSC (all attrs)", ds.N())
	}

	start = time.Now()
	kc, err := kcenter.Run(ds, kcenter.Config{K: *k, Attr: attr, Seed: *seed})
	report("FairKCenter("+attr+")", "center quotas", assignOfK(kc), err, start)

	start = time.Now()
	gc, err := proportional.GreedyCapture(ds.Features, *k)
	report("GreedyCapture", "attribute-agnostic", assignOfP(gc), err, start)

	start = time.Now()
	proj, err := fairproj.MeanDifferenceProjection(ds)
	if err == nil {
		var kmp *kmeans.Result
		kmp, err = kmeans.Run(proj.Features, kmeans.Config{K: *k, Seed: *seed})
		report("FairProj + K-Means", "space transformation", assignOfM(kmp), err, start)
	} else {
		report("FairProj + K-Means", "", nil, err, start)
	}
	return nil
}

// assignOf* unwrap result types that may be nil on error.
func assignOf(r *core.Result) []int {
	if r == nil {
		return nil
	}
	return r.Assign
}
func assignOfZ(r *zgya.Result) []int {
	if r == nil {
		return nil
	}
	return r.Assign
}
func assignOfF(r *fairlet.Result) []int {
	if r == nil {
		return nil
	}
	return r.Assign
}
func assignOfB(r *bera.Result) []int {
	if r == nil {
		return nil
	}
	return r.Assign
}
func assignOfS(r *spectral.Result) []int {
	if r == nil {
		return nil
	}
	return r.Assign
}
func assignOfK(r *kcenter.Result) []int {
	if r == nil {
		return nil
	}
	return r.Assign
}
func assignOfP(r *proportional.Result) []int {
	if r == nil {
		return nil
	}
	return r.Assign
}
func assignOfM(r *kmeans.Result) []int {
	if r == nil {
		return nil
	}
	return r.Assign
}
