// Command experiments regenerates every table and figure of the FairKM
// paper's evaluation (EDBT 2020, Section 5) on the synthetic stand-in
// datasets, plus the extension experiments described in DESIGN.md.
//
// Usage:
//
//	experiments [-exp all|table5..table8|fig1..fig7|baselines|scaling|numeric|stream|shardsweep]
//	            [-reps N] [-seed S] [-adult-rows N] [-parallel P]
//	            [-budget D] [-trace] [-telemetry run.jsonl]
//	            [-cpuprofile prof.out] [-out FILE]
//
// -telemetry streams a JSONL run journal (one record per solver
// iteration, labelled with method, k and seed) to the given path.
// -cpuprofile writes a pprof CPU profile of the whole run for
// `go tool pprof`.
//
// With -exp all (the default) it runs the paper's full evaluation.
// -reps controls the number of random restarts averaged per
// configuration (the paper uses 100; the default 10 finishes in
// minutes). -adult-rows shrinks the Adult dataset for quick runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// renderer is the common surface of every experiment result.
type renderer interface{ Render() string }

// runnable is one named experiment.
type runnable struct {
	name string
	run  func(experiments.Options) (renderer, error)
}

func wrapQ(f func(experiments.Options) (*experiments.QualityTable, error)) func(experiments.Options) (renderer, error) {
	return func(o experiments.Options) (renderer, error) { return f(o) }
}

func wrapF(f func(experiments.Options) (*experiments.FairnessTable, error)) func(experiments.Options) (renderer, error) {
	return func(o experiments.Options) (renderer, error) { return f(o) }
}

func wrapC(f func(experiments.Options) (*experiments.ComparisonFigure, error)) func(experiments.Options) (renderer, error) {
	return func(o experiments.Options) (renderer, error) { return f(o) }
}

func wrapS(f func(experiments.Options) (*experiments.SweepFigure, error)) func(experiments.Options) (renderer, error) {
	return func(o experiments.Options) (renderer, error) { return f(o) }
}

// paperExperiments regenerate the paper's tables and figures; -exp all
// runs exactly these.
var paperExperiments = []runnable{
	{"table5", wrapQ(experiments.RunTable5)},
	{"table6", wrapF(experiments.RunTable6)},
	{"table7", wrapQ(experiments.RunTable7)},
	{"table8", wrapF(experiments.RunTable8)},
	{"fig1", wrapC(experiments.RunFig1)},
	{"fig2", wrapC(experiments.RunFig2)},
	{"fig3", wrapC(experiments.RunFig3)},
	{"fig4", wrapC(experiments.RunFig4)},
	{"fig5", wrapS(experiments.RunFig5)},
	{"fig6", wrapS(experiments.RunFig6)},
	{"fig7", wrapS(experiments.RunFig7)},
}

// extensionExperiments go beyond the paper (DESIGN.md "Extension
// experiments"); selected by name only.
var extensionExperiments = []runnable{
	{"baselines", func(o experiments.Options) (renderer, error) { return experiments.RunBaselines(o) }},
	{"scaling", func(o experiments.Options) (renderer, error) { return experiments.RunScalability(o) }},
	{"numeric", func(o experiments.Options) (renderer, error) { return experiments.RunNumericSensitive(o) }},
	{"ksweep", func(o experiments.Options) (renderer, error) { return experiments.RunKSweep(o) }},
	{"convergence", func(o experiments.Options) (renderer, error) { return experiments.RunConvergence(o) }},
	{"attrsweep", func(o experiments.Options) (renderer, error) { return experiments.RunAttrSweep(o) }},
	{"stream", func(o experiments.Options) (renderer, error) { return experiments.RunStreamStudy(o) }},
	{"shardsweep", func(o experiments.Options) (renderer, error) { return experiments.RunShardStudy(o) }},
}

func main() { cli.Main("experiments", run) }

// run executes the selected experiments, writing rendered results to
// out (and to the -out file if given). Split from main for testability.
// run's named result lets the deferred closes of written outputs (CPU
// profile, telemetry journal, results file) report a failed final
// flush instead of dropping it. Inner Create calls bind distinct
// error names so &err below always means the function result.
func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		exp       = fs.String("exp", "all", "experiment(s): all, table5..table8, fig1..fig7, baselines, scaling, numeric, ksweep, convergence, attrsweep, stream, shardsweep (comma-separated)")
		reps      = fs.Int("reps", 10, "random restarts averaged per configuration (paper: 100)")
		seed      = fs.Int64("seed", 1, "base random seed")
		adultRows = fs.Int("adult-rows", 0, "reduced Adult generation size (0 = paper's 32561)")
		parallel  = fs.Int("parallel", 0, "engine sweep workers (FairKM/K-Means/ZGYA): 0 = paper's sequential sweeps, -1 = GOMAXPROCS, n = n workers")
		budget    = fs.Duration("budget", 0, "wall-clock budget per individual solver run (0 = none)")
		trace     = fs.Bool("trace", false, "log every solver iteration to stderr (very verbose)")
		telem     = fs.String("telemetry", "", "write a JSONL run journal (per-iteration records for every solver run) to this path")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		outPath   = fs.String("out", "", "also write output to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *reps < 1 {
		return fmt.Errorf("-reps must be at least 1 (got %d)", *reps)
	}
	if *cpuProf != "" {
		f, cerr := os.Create(*cpuProf)
		if cerr != nil {
			return cerr
		}
		defer cli.CloseCapture(&err, f)
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	opts := experiments.DefaultOptions()
	opts.Reps = *reps
	opts.Seed = *seed
	opts.AdultRows = *adultRows
	opts.Parallelism = *parallel
	opts.Budget = *budget
	if *trace {
		opts.Trace = os.Stderr
	}
	if *telem != "" {
		journal, cerr := telemetry.CreateRunLog(*telem)
		if cerr != nil {
			return cerr
		}
		opts.Journal = journal
		defer cli.CloseCapture(&err, journal)
	}

	selected, err := selectExperiments(*exp)
	if err != nil {
		return err
	}

	w := out
	if *outPath != "" {
		f, cerr := os.Create(*outPath)
		if cerr != nil {
			return cerr
		}
		defer cli.CloseCapture(&err, f)
		w = io.MultiWriter(out, f)
	}

	for _, r := range selected {
		res, err := r.run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		if _, err := fmt.Fprintf(w, "### %s\n\n%s\n", r.name, res.Render()); err != nil {
			return err
		}
	}
	if opts.Journal != nil {
		if err := opts.Journal.Close(); err != nil {
			return fmt.Errorf("telemetry journal: %w", err)
		}
	}
	return nil
}

// selectExperiments resolves the -exp flag value, a comma list in
// which "all" stands for the paper experiments, to a run list.
func selectExperiments(spec string) ([]runnable, error) {
	known := map[string]runnable{}
	for _, r := range append(append([]runnable{}, paperExperiments...), extensionExperiments...) {
		known[r.name] = r
	}
	var selected []runnable
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "all" {
			selected = append(selected, paperExperiments...)
			continue
		}
		r, ok := known[name]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (known: all, table5..table8, fig1..fig7, baselines, scaling, numeric, ksweep, convergence, attrsweep, stream, shardsweep)", name)
		}
		selected = append(selected, r)
	}
	return selected, nil
}
