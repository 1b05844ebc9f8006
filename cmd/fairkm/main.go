// Command fairkm clusters a CSV dataset with FairKM and reports
// clustering quality and per-attribute fairness.
//
// Usage:
//
//	fairkm -in data.csv -features f1,f2 -sensitive s1,s2 -k 5
//	       [-numeric-sensitive a1,a2] [-lambda L | -auto-lambda]
//	       [-seed S] [-max-iter N] [-tol T] [-budget D] [-parallel P]
//	       [-trace] [-telemetry run.jsonl] [-assign out.csv]
//	       [-save model.json] [-compare]
//
// -telemetry streams a machine-readable run journal to the given path:
// one JSONL record per engine iteration ({iter, moves, objective,
// elapsed_ns}) plus a final summary record. With a fixed -seed every
// field is reproducible except elapsed_ns.
//
// -save writes the trained model as a versioned artifact (centroids,
// λ, categorical domains, min-max scaling, provenance) that
// cmd/fairserved serves and fairclust.LoadModel reads back
// bit-identically.
//
// With -compare it also runs S-blind K-Means on the same data and
// prints both result columns side by side, quantifying what fairness
// cost/benefit FairKM delivers on your data.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/telemetry"
)

func main() { cli.Main("fairkm", run) }

// run executes the tool against the given arguments, writing the report
// to out. Split from main for testability.
// run's named result lets the deferred journal close report a failed
// final flush instead of dropping it.
func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("fairkm", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		in         = fs.String("in", "", "input CSV path (required)")
		features   = fs.String("features", "", "comma-separated numeric feature columns (required)")
		sensitive  = fs.String("sensitive", "", "comma-separated categorical sensitive columns")
		numSens    = fs.String("numeric-sensitive", "", "comma-separated numeric sensitive columns")
		k          = fs.Int("k", 5, "number of clusters")
		lambda     = fs.Float64("lambda", 0, "fairness weight λ (0 with -auto-lambda unset means plain K-Means behaviour)")
		autoLambda = fs.Bool("auto-lambda", false, "use the paper's λ=(n/k)² heuristic")
		seed       = fs.Int64("seed", 1, "random seed")
		maxIter    = fs.Int("max-iter", 30, "maximum round-robin iterations")
		tol        = fs.Float64("tol", 0, "stop when the objective improves by less than this between iterations (0 = exact zero-moves convergence)")
		budget     = fs.Duration("budget", 0, "wall-clock budget for the solve, e.g. 500ms (0 = none)")
		parallel   = fs.Int("parallel", 0, "sweep workers: 0 = paper's sequential Algorithm 1, -1 = GOMAXPROCS, n = n workers")
		trace      = fs.Bool("trace", false, "print one line per iteration (moves, objective, elapsed)")
		telem      = fs.String("telemetry", "", "write a JSONL run journal (per-iteration records plus a final summary) to this path")
		minmax     = fs.Bool("minmax", true, "min-max normalize features before clustering")
		assignOut  = fs.String("assign", "", "write per-row cluster assignments to this CSV")
		saveOut    = fs.String("save", "", "write the trained model artifact (centroids, λ, domains, scaling, provenance) to this path; serve it with fairserved")
		compare    = fs.Bool("compare", false, "also run S-blind K-Means and print both")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *features == "" {
		fs.Usage()
		return fmt.Errorf("-in and -features are required")
	}
	if *sensitive == "" && *numSens == "" {
		return fmt.Errorf("need at least one -sensitive or -numeric-sensitive column")
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
		NumericSensitive:     cli.SplitList(*numSens),
	})
	f.Close() //fairvet:ignore errflow -- file opened read-only; nothing was buffered to lose
	if err != nil {
		return err
	}
	var scaling *model.Scaling
	if *minmax {
		mins, ranges := ds.MinMaxNormalize()
		scaling = &model.Scaling{Kind: "minmax", Mins: mins, Ranges: ranges}
	}

	cfg := core.Config{
		K: *k, Lambda: *lambda, AutoLambda: *autoLambda,
		Seed: *seed, MaxIter: *maxIter, Tol: *tol, Budget: *budget,
		Parallelism: *parallel,
	}
	var traceObs engine.Observer
	if *trace {
		traceObs = engine.TraceObserver(out, "fairkm")
	}
	var journal *telemetry.RunLog
	if *telem != "" {
		journal, err = telemetry.CreateRunLog(*telem)
		if err != nil {
			return err
		}
		defer cli.CloseCapture(&err, journal)
		cfg.Observer = engine.Observers(traceObs, journal.Observer("fairkm"))
	} else {
		cfg.Observer = traceObs
	}
	started := time.Now()
	res, err := core.Run(ds, cfg)
	if err != nil {
		return err
	}
	if journal != nil {
		journal.WriteSummary("fairkm", telemetry.RunSummary{
			Tool: "fairkm", K: *k, Lambda: res.Lambda, Seed: *seed, Rows: ds.N(),
			Iterations: res.Iterations, TotalMoves: res.TotalMoves, Converged: res.Converged,
			Objective: res.Objective, KMeansTerm: res.KMeansTerm, FairnessTerm: res.FairnessTerm,
			ElapsedNS: time.Since(started).Nanoseconds(),
		})
		if err := journal.Close(); err != nil {
			return fmt.Errorf("telemetry journal: %w", err)
		}
		fmt.Fprintf(out, "wrote run journal to %s\n", *telem)
	}

	fmt.Fprintf(out, "FairKM: n=%d k=%d lambda=%.4g iterations=%d converged=%v\n",
		ds.N(), *k, res.Lambda, res.Iterations, res.Converged)
	fmt.Fprintf(out, "  objective=%.4f (K-Means term %.4f + λ·fairness term %.6g)\n",
		res.Objective, res.KMeansTerm, res.FairnessTerm)
	fmt.Fprintf(out, "  cluster sizes: %v\n", res.Sizes)

	report(out, "FairKM", ds, res.Assign, *k)

	if *compare {
		km, err := kmeans.Run(ds.Features, kmeans.Config{K: *k, Seed: *seed})
		if err != nil {
			return err
		}
		report(out, "K-Means(N) [S-blind]", ds, km.Assign, *k)
		fmt.Fprintf(out, "\nDeviation of FairKM from S-blind K-Means: DevC=%.4f DevO=%.4f\n",
			metrics.DevC(ds.Features, res.Assign, km.Assign, *k),
			metrics.DevO(res.Assign, km.Assign, *k, *k))
	}

	if *assignOut != "" {
		if err := writeAssignments(*assignOut, res.Assign); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote assignments to %s\n", *assignOut)
	}

	if *saveOut != "" {
		art, err := model.New(ds, nil, res, model.Provenance{Tool: "fairkm", Seed: *seed})
		if err != nil {
			return err
		}
		art.Scaling = scaling
		if err := model.Save(*saveOut, art); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote model artifact to %s (serve with: fairserved -model %s)\n", *saveOut, *saveOut)
	}
	return nil
}

func report(out io.Writer, name string, ds *dataset.Dataset, assign []int, k int) {
	fmt.Fprintf(out, "\n%s:\n", name)
	fmt.Fprintf(out, "  CO=%.4f  SH=%.4f\n",
		metrics.CO(ds.Features, assign, k),
		metrics.SilhouetteSampled(ds.Features, assign, k, 2000, 1))
	for _, rep := range metrics.FairnessAll(ds, assign, k) {
		fmt.Fprintf(out, "  %-20s AE=%.4f AW=%.4f ME=%.4f MW=%.4f\n",
			rep.Attribute, rep.AE, rep.AW, rep.ME, rep.MW)
	}
	for _, s := range ds.Sensitive {
		if s.Kind == dataset.Numeric {
			nrep := metrics.NumericFairness(s, assign, k)
			fmt.Fprintf(out, "  %-20s avgGap=%.4f maxGap=%.4f (numeric)\n",
				nrep.Attribute, nrep.AvgGap, nrep.MaxGap)
		}
	}
}

func writeAssignments(path string, assign []int) (err error) {
	f, cerr := os.Create(path)
	if cerr != nil {
		return cerr
	}
	defer cli.CloseCapture(&err, f)
	if _, err := fmt.Fprintln(f, "row,cluster"); err != nil {
		return err
	}
	for i, c := range assign {
		if _, err := fmt.Fprintf(f, "%d,%d\n", i, c); err != nil {
			return err
		}
	}
	return nil
}
