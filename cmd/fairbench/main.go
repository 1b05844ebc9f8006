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
// The methods, their names and notes come from the method table in
// internal/experiments (CompareMethods), which the `experiments -exp
// baselines` study runs too; fairbench runs it with FairKM at the
// λ = (n/k)² heuristic. -budget bounds the wall-clock of each
// engine-based solver run (FairKM, K-Means, ZGYA, and the K-Means of
// FairProj+KM); -trace prints their per-iteration progress, one line
// labelled like "K-Means[k=3 seed=1]" per iteration, ahead of the
// table, which prints once every method has run.
//
// Methods needing a single sensitive attribute (ZGYA, fairlet, fair
// k-center) use -single-attr, defaulting to the first sensitive
// column. The table skips a method, printing "skipped:" and the
// reason, when:
//
//   - Fairlet: that attribute is not binary;
//   - Bera: the input has more than 2000 rows (the LP size cutoff; see
//     internal/bera's cost note);
//   - FairSC: the input has more than 2000 rows (the eigensolver
//     cutoff);
//   - any method: its run fails.
//
// The cutoffs do not bound run time: on a 2-vCPU machine one run took
// 16 s for Bera at 280 rows and 60 s for fairlet at 1,492 rows.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/experiments"
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
	if *k > ds.N() {
		return fmt.Errorf("-k %d exceeds the %d input rows", *k, ds.N())
	}

	opts := experiments.DefaultOptions()
	opts.Seed = *seed
	opts.Parallelism = *parallel
	opts.Budget = *budget
	if *trace {
		opts.Trace = out
	}
	cmp, err := experiments.CompareMethods(ds, attr, *k, experiments.LambdaAuto, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fairbench: n=%d features=%d sensitive=%d k=%d single-attr=%s\n\n",
		ds.N(), ds.Dim(), len(ds.Sensitive), *k, attr)
	fmt.Fprintf(out, "%-22s %10s %8s %10s %10s %9s  %s\n",
		"method", "CO↓", "SH↑", "meanAE↓", "meanMW↓", "ms", "note")
	for _, r := range cmp.Rows {
		if r.Skipped != "" {
			fmt.Fprintf(out, "%-22s skipped: %s\n", r.Method, r.Skipped)
			continue
		}
		fmt.Fprintf(out, "%-22s %10.4f %8.4f %10.4f %10.4f %9.2f  %s\n",
			r.Method, r.CO, r.SH, r.MeanAE, r.MeanMW, r.Millis, r.Remarks)
	}
	return nil
}
